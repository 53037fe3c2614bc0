package xmltree

import (
	"bufio"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// escapeRunes is the rune-by-rune escaper escapeRun replaced, kept as
// its oracle: ranging over a string yields U+FFFD for every byte that
// is not part of valid UTF-8.
func escapeRunes(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '\r':
			b.WriteString("&#xD;")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeInputs covers every escaped character, multi-byte runes, a
// literal U+FFFD, and invalid UTF-8 (stray continuation bytes,
// truncated sequences, overlongs and surrogates), plus random bytes.
func escapeInputs() []string {
	in := []string{
		"", "plain", "a&b<c>d\re", "&&&", "<>", "\r\n", "ü€😀", "�",
		"\x80", "a\xffb", "\xe2\x82", "x\xe2\x82", "\xc0\xaf", "\xed\xa0\x80",
		"tail&", "ü<\xff>€",
	}
	r := rand.New(rand.NewSource(1))
	alphabet := []byte("ab&<>\r\n \x80\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\xff")
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(24))
		for j := range b {
			if r.Intn(4) == 0 {
				b[j] = byte(r.Intn(256))
			} else {
				b[j] = alphabet[r.Intn(len(alphabet))]
			}
		}
		in = append(in, string(b))
	}
	return in
}

// TestEscapeMatchesRunes: the run-based escaper, through both the
// compact tree serializer and the Emitter, writes exactly the
// rune-by-rune bytes.
func TestEscapeMatchesRunes(t *testing.T) {
	for _, s := range escapeInputs() {
		want := escapeRunes(s)
		tr := New("a")
		Append(tr.Root, tr.NewText(s))
		if got := tr.StringCompact(); got != "<a>"+want+"</a>" {
			t.Fatalf("StringCompact of text %q = %q, want <a>%s</a>", s, got, want)
		}
		var out strings.Builder
		e := NewEmitter(&out)
		e.escape(s)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if out.String() != want || e.Bytes() != int64(len(want)) {
			t.Fatalf("Emitter.escape(%q) = %q (%d bytes counted), want %q", s, out.String(), e.Bytes(), want)
		}
	}
}

// TestEmitterTextAllocs: emitting text nodes, escaped or not, makes no
// allocation per call.
func TestEmitterTextAllocs(t *testing.T) {
	e := &Emitter{w: bufio.NewWriterSize(io.Discard, 16<<10)}
	texts := []string{"plain text", "a & b < c", "é\r\xff"}
	allocs := testing.AllocsPerRun(200, func() {
		for _, s := range texts {
			e.Start("a")
			e.Text(s)
			e.Text(s)
			e.End()
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per run, want 0", allocs)
	}
}
