package embedding_test

import (
	"strings"
	"testing"

	"repro/internal/embedding"
	"repro/internal/workload"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		emb  *embedding.Embedding
	}{
		{"sigma1", workload.ClassEmbedding()},
		{"sigma2", workload.StudentEmbedding()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			text := tc.emb.Marshal()
			back, err := embedding.Unmarshal(text, tc.emb.Source, tc.emb.Target)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if err := back.Validate(nil); err != nil {
				t.Fatalf("round-tripped embedding invalid: %v", err)
			}
			for a, b := range tc.emb.Lambda {
				if back.Lambda[a] != b {
					t.Errorf("λ(%s) = %q, want %q", a, back.Lambda[a], b)
				}
			}
			for ref, p := range tc.emb.Paths {
				if !back.Paths[ref].Equal(p) {
					t.Errorf("path%s = %q, want %q", ref, back.Paths[ref], p)
				}
			}
		})
	}
}

func TestMarshalOccurrences(t *testing.T) {
	// A repeated concat child marshals with its occurrence tag.
	var scen workload.Fig3Scenario
	for _, sc := range workload.Figure3() {
		if strings.HasPrefix(sc.Name, "c-") {
			scen = sc
		}
	}
	// Source A -> (B, C) maps both to B1 with positions; build a variant
	// with a genuinely repeated source child instead.
	emb := scen.Build()
	text := emb.Marshal()
	back, err := embedding.Unmarshal(text, emb.Source, emb.Target)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(nil); err != nil {
		t.Errorf("Fig3(c) round trip invalid: %v", err)
	}
	if !strings.Contains(text, "position() = 2") {
		t.Errorf("marshal lost position qualifiers:\n%s", text)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	emb := workload.StudentEmbedding()
	cases := []struct {
		name, text, want string
	}{
		{"missing arrow", "type db school", "missing '->'"},
		{"bad directive", "frob db -> school", "expected 'type' or 'path'"},
		{"bad edge", "path dbclass -> x", "lacks '/'"},
		{"bad occurrence", "path db/class#zero -> x", "bad occurrence"},
		{"bad path", "path db/class -> //", "empty step"},
		{"trailing qualifier text", "path db/class -> a[position() = 2 and c]", "invalid position qualifier"},
		{"empty parent", "path /class -> x", "malformed edge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := embedding.Unmarshal(tc.text, emb.Source, emb.Target)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Unmarshal(%q) = %v, want substring %q", tc.text, err, tc.want)
			}
		})
	}
	// Comments and blank lines are fine.
	if _, err := embedding.Unmarshal("# a comment\n\n", emb.Source, emb.Target); err != nil {
		t.Errorf("comments/blank lines rejected: %v", err)
	}
}
