// Command xse-query translates a regular XPath query across a schema
// embedding (§4.4) and optionally evaluates it over a target document,
// mapping the answers back through the node id mapping idM.
//
// Usage:
//
//	xse-query -mapping m.xse -source s1.dtd -target s2.dtd -query "a/b[c]" [flags]
//
//	-doc file      evaluate the translated query over this target document
//	-source-doc f  also evaluate the original query over this source
//	               document and verify Q(T) = idM(Tr(Q)(σd(T)))
//	-show-anfa     print the translated automaton
//	-show-regex    expand the automaton back to regular XPath (small automata)
//	-no-optimize   keep the raw translation: skip the schema-aware ANFA
//	               optimizer (the differential baseline; also required
//	               when -doc does not conform to the target schema)
//	-v             report translation-cache statistics (hits/misses)
//	-timeout d     abort the whole run after duration d (exit 4)
//	-max-input n   max input size in bytes (0 = default, -1 = unlimited)
//
// Translation goes through the process-wide query-translation cache;
// repeated -query flags translate each query once and -v surfaces the
// hit/miss counters.
//
// Exit codes: 0 success, 1 internal error or failed preservation
// check, 2 usage, 3 invalid input (unreadable/malformed schemas,
// mappings, queries or documents, resource limits exceeded),
// 4 timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/anfa"
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const (
	exitInternal = 1
	exitUsage    = 2
	exitInvalid  = 3
	exitTimeout  = 4
)

// cleanup is run by fatalf before exiting, so profiles, traces, the
// wide event (carrying the real exit code) and the debug server are
// flushed even on fatal paths.
var cleanup = func(code int) {}

// multiFlag collects repeated -query values.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }

func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var queries multiFlag
	var (
		mappingFile = flag.String("mapping", "", "embedding file from xse-embed (required)")
		sourceFile  = flag.String("source", "", "source DTD file (required)")
		targetFile  = flag.String("target", "", "target DTD file (required)")
		sourceRoot  = flag.String("source-root", "", "source root element")
		targetRoot  = flag.String("target-root", "", "target root element")
		docFile     = flag.String("doc", "", "target document to evaluate against")
		srcDocFile  = flag.String("source-doc", "", "source document for a preservation check")
		showANFA    = flag.Bool("show-anfa", false, "print the translated automaton")
		showRegex   = flag.Bool("show-regex", false, "print the translated query as regular XPath")
		noOptimize  = flag.Bool("no-optimize", false, "skip the schema-aware ANFA optimizer (differential baseline)")
		verbose     = flag.Bool("v", false, "report translation-cache statistics")
		timeout     = flag.Duration("timeout", 0, "abort the run after this duration (0 = no deadline)")
		maxInput    = flag.Int("max-input", 0, "max input size in bytes (0 = default 64MiB, -1 = unlimited)")
	)
	flag.Var(&queries, "query", "regular XPath query over the source schema (repeatable, at least one required)")
	tel := obs.NewCLI("xse-query", flag.CommandLine)
	flag.Parse()
	if *mappingFile == "" || *sourceFile == "" || *targetFile == "" || len(queries) == 0 {
		flag.Usage()
		os.Exit(exitUsage)
	}
	ctx, err := tel.Start(context.Background())
	if err != nil {
		fatalf(exitInternal, "%v", err)
	}
	cleanup = func(code int) { tel.SetExit(code); tel.Close() }
	defer tel.Close()
	if *timeout > 0 {
		// Translation and evaluation observe the context; the deadline
		// surfaces as a typed CancelError mapped to exit 4.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	lim := guard.Limits{MaxInputBytes: *maxInput}

	src := mustSchema(*sourceFile, *sourceRoot, lim)
	tgt := mustSchema(*targetFile, *targetRoot, lim)
	sigma := mustMapping(*mappingFile, src, tgt)

	var srcDoc, doc *xmltree.Tree
	var mapped *embedding.Result
	if *srcDocFile != "" {
		srcDoc = mustDoc(*srcDocFile, lim)
		var err error
		mapped, err = sigma.ApplyCtx(ctx, srcDoc)
		if err != nil {
			fatalCtx(err, "map source document")
		}
	} else if *docFile != "" {
		doc = mustDoc(*docFile, lim)
	}

	cache, err := translate.NewCache(sigma)
	if err != nil {
		fatalf(exitInvalid, "%s: invalid embedding: %v", *mappingFile, err)
	}
	code := 0
	for _, queryText := range queries {
		q, err := xpath.ParseLimits(queryText, lim)
		if err != nil {
			fatalf(exitInvalid, "parse query: %v", err)
		}
		auto, err := cache.GetOpt(ctx, q, translate.Options{NoOptimize: *noOptimize})
		if err != nil {
			fatalCtx(err, "translate")
		}
		fmt.Printf("query:      %s\n", xpath.String(q))
		fmt.Printf("automaton:  %d states+transitions\n", auto.Size())
		if *showANFA {
			fmt.Print(auto)
		}
		if *showRegex {
			back, err := auto.ToRegex()
			if err != nil {
				fmt.Printf("regex:      (not expandable: %v)\n", err)
			} else {
				fmt.Printf("regex:      %s\n", xpath.String(back))
			}
		}

		switch {
		case srcDoc != nil:
			if !checkPreservation(q, auto, srcDoc, mapped) {
				code = exitInternal
			}
		case doc != nil:
			// The compiled backend; the cached automaton carries its
			// program across queries and processes.
			answers, err := auto.Program().RunCtx(ctx, doc.Root)
			if err != nil {
				fatalCtx(err, "evaluate")
			}
			printAnswers(answers)
		}
	}
	if *verbose {
		st := cache.Stats()
		fmt.Printf("cache:      %d hits, %d misses, %d waits, %d entries\n",
			st.Hits, st.Misses, st.Waits, st.Entries)
		obs.WriteSummary(os.Stderr, obs.Default())
	}
	if code != 0 {
		tel.SetExit(code)
		tel.Close()
		os.Exit(code)
	}
}

// checkPreservation verifies Q(T) = idM(Tr(Q)(σd(T))) for one query
// over the source document, printing the verdict.
func checkPreservation(q xpath.Expr, auto *anfa.Automaton, srcDoc *xmltree.Tree, mapped *embedding.Result) bool {
	want := xpath.Eval(q, srcDoc.Root)
	got := auto.Eval(mapped.Tree.Root)
	fmt.Printf("source answer:     %d nodes\n", len(want))
	fmt.Printf("translated answer: %d nodes\n", len(got))
	ok := mapped.Preserves(want, got) == nil
	fmt.Printf("Q(T) = idM(Tr(Q)(σd(T))): %v\n", ok)
	return ok
}

func printAnswers(answers []*xmltree.Node) {
	fmt.Printf("answers (%d):\n", len(answers))
	for _, n := range answers {
		if n.IsText() {
			fmt.Printf("  %q\n", n.Text)
			continue
		}
		if v, ok := n.Value(); ok {
			fmt.Printf("  <%s>%s\n", n.Label, v)
			continue
		}
		fmt.Printf("  <%s> (id %d)\n", n.Label, n.ID)
	}
}

// fatalCtx reports a failure, distinguishing a run cut short by
// -timeout (exit 4) from invalid input (exit 3).
func fatalCtx(err error, stage string) {
	var ce *guard.CancelError
	if errors.As(err, &ce) {
		fatalf(exitTimeout, "timeout: %v", err)
	}
	fatalf(exitInvalid, "%s: %v", stage, err)
}

func mustSchema(path, root string, lim guard.Limits) *dtd.DTD {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf(exitInvalid, "read %s: %v", path, err)
	}
	d, err := dtd.ParseLimits(string(data), root, lim)
	if err != nil {
		fatalf(exitInvalid, "%s: %v", path, err)
	}
	return d
}

func mustMapping(path string, src, tgt *dtd.DTD) *embedding.Embedding {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf(exitInvalid, "read %s: %v", path, err)
	}
	sigma, err := embedding.Unmarshal(string(data), src, tgt)
	if err != nil {
		fatalf(exitInvalid, "%s: %v", path, err)
	}
	if err := sigma.Validate(nil); err != nil {
		fatalf(exitInvalid, "%s: invalid embedding: %v", path, err)
	}
	return sigma
}

func mustDoc(path string, lim guard.Limits) *xmltree.Tree {
	f, err := os.Open(path)
	if err != nil {
		fatalf(exitInvalid, "%v", err)
	}
	defer f.Close()
	doc, err := xmltree.ParseLimits(f, lim)
	if err != nil {
		fatalf(exitInvalid, "%s: %v", path, err)
	}
	return doc
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xse-query: "+format+"\n", args...)
	cleanup(code)
	os.Exit(code)
}
