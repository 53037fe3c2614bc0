package embedding_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/xmltree"
)

// twoRouteEmbedding maps s(b) into a target that reaches b along two
// routes, c/b and d/b: path(s, b) can switch between them without
// changing λ, and the σd image shows which one is in force.
func twoRouteEmbedding(t *testing.T) *embedding.Embedding {
	t.Helper()
	src := dtd.MustNew("s",
		dtd.D("s", dtd.Concat("b")),
		dtd.D("b", dtd.Str()),
	)
	tgt := dtd.MustNew("t",
		dtd.D("t", dtd.Concat("c", "d")),
		dtd.D("c", dtd.Concat("b")),
		dtd.D("d", dtd.Concat("b")),
		dtd.D("b", dtd.Str()),
	)
	e := embedding.New(src, tgt)
	e.MapType("s", "t").MapType("b", "b")
	e.SetPath(embedding.Ref("s", "b"), "c/b").
		SetPath(embedding.Ref("b", embedding.StrChild), "text()")
	if err := e.Validate(nil); err != nil {
		t.Fatalf("two-route fixture invalid: %v", err)
	}
	return e
}

// runBoth compiles both directions and streams doc forward, then the
// forward output back through the inverse.
func runBoth(t *testing.T, e *embedding.Embedding, doc string) (fwd, back string) {
	t.Helper()
	run := func(compile func() (*embedding.StreamProgram, error), in string) string {
		p, err := compile()
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		var out bytes.Buffer
		if _, err := p.Run(context.Background(), strings.NewReader(in), &out, embedding.StreamOptions{}); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	fwd = run(e.CompileStream, doc)
	return fwd, run(e.CompileStreamInverse, fwd)
}

// TestCompileStreamShared: concurrent compiles of one validated
// embedding all get the same program per direction.
func TestCompileStreamShared(t *testing.T) {
	e := twoRouteEmbedding(t)
	const n = 16
	fwd := make([]*embedding.StreamProgram, n)
	inv := make([]*embedding.StreamProgram, n)
	errs := make([]error, 2*n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fwd[g], errs[2*g] = e.CompileStream()
			inv[g], errs[2*g+1] = e.CompileStreamInverse()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for g := 1; g < n; g++ {
		if fwd[g] != fwd[0] || inv[g] != inv[0] {
			t.Fatalf("goroutine %d got its own program; want one shared pointer per direction", g)
		}
	}
	if fwd[0] == inv[0] {
		t.Fatal("σd and σd⁻¹ share one program")
	}
	if p, _ := e.CompileStream(); p != fwd[0] {
		t.Error("a later CompileStream recompiled")
	}
}

// TestCompileStreamReset: SetPath and MapType drop the memoized
// programs, so the next compile sees the change: a changed path
// changes the output, an invalid embedding fails to compile (and the
// failure is not cached), and repairing it compiles again.
func TestCompileStreamReset(t *testing.T) {
	src, err := xmltree.ParseString(`<s><b>v</b></s>`)
	if err != nil {
		t.Fatal(err)
	}
	doc := src.String()
	e := twoRouteEmbedding(t)
	check := func(stage string) string {
		t.Helper()
		fwd, back := runBoth(t, e, doc)
		if want, err := treeMigrate(t, e, doc); err != nil || fwd != want {
			t.Fatalf("%s: streamed σd(doc) =\n%s\ntree path =\n%s (err %v)", stage, fwd, want, err)
		}
		if back != doc {
			t.Fatalf("%s: σd⁻¹(σd(doc)) = %s, want %s", stage, back, doc)
		}
		return fwd
	}
	viaC := check("path c/b")
	e.SetPath(embedding.Ref("s", "b"), "d/b")
	if viaD := check("path d/b"); viaD == viaC {
		t.Fatal("changing path(s, b) left σd(doc) unchanged")
	}

	// path(s, b) = d ends at d, not at λ(b) = b.
	e.SetPath(embedding.Ref("s", "b"), "d")
	for i := 0; i < 2; i++ {
		if _, err := e.CompileStream(); err == nil {
			t.Fatalf("call %d: CompileStream accepted an invalid path", i)
		}
		if _, err := e.CompileStreamInverse(); err == nil {
			t.Fatalf("call %d: CompileStreamInverse accepted an invalid path", i)
		}
	}
	e.SetPath(embedding.Ref("s", "b"), "c/b")
	if fwd := check("repaired path c/b"); fwd != viaC {
		t.Fatalf("repaired σd(doc) =\n%s\nwant\n%s", fwd, viaC)
	}

	// λ(b) = d makes path(s, b) = c/b end at the wrong type.
	e.MapType("b", "d")
	if _, err := e.CompileStream(); err == nil {
		t.Fatal("CompileStream accepted an embedding broken by MapType")
	}
	if _, err := e.CompileStreamInverse(); err == nil {
		t.Fatal("CompileStreamInverse accepted an embedding broken by MapType")
	}
}
