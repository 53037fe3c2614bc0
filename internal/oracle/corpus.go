package oracle

import (
	"math/rand"

	"repro/internal/embedding"
	"repro/internal/fuzzseed"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// EmitCorpus generates cfg.Trials scenarios and seeds the parser fuzz
// corpora under root (the repository root) with the interesting inputs
// they produce: schema texts for FuzzDTDParse, query texts for
// FuzzXPathParse, document XML for FuzzXMLDecode and FuzzStreamMigrate,
// and σd images for FuzzStreamInvert. perTarget bounds
// the new inputs per fuzz target; entries already present in a corpus
// directory are not duplicated (see fuzzseed.Write). It returns the
// number of corpus files written.
func EmitCorpus(root string, cfg Config, perTarget int) (int, error) {
	cfg = cfg.withDefaults()
	if perTarget <= 0 {
		perTarget = 24
	}
	seeds := map[string][]string{}
	seen := map[string]bool{}
	add := func(target, input string) {
		key := target + "\x00" + input
		if seen[key] || len(seeds[target]) >= perTarget {
			return
		}
		seen[key] = true
		seeds[target] = append(seeds[target], input)
	}
	// FuzzStreamInvert checks its inputs against the class embedding (a
	// disjunction, stars, pinned star steps) and the auction embedding
	// (targets that reorder siblings): seed it with their images first.
	for i, emb := range []*embedding.Embedding{workload.ClassEmbedding(), workload.AuctionEmbedding()} {
		r := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		doc := xmltree.MustGenerate(emb.Source, r, xmltree.GenOptions{StarMax: 2, DepthBudget: 6})
		if res, err := emb.Apply(doc); err == nil {
			add("FuzzStreamInvert", res.Tree.String())
		}
	}
	for i := 0; i < cfg.Trials; i++ {
		r := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		tr, err := genTrial(r, cfg)
		if err != nil {
			continue
		}
		add("FuzzDTDParse", tr.Source.String())
		add("FuzzDTDParse", tr.Target.String())
		add("FuzzXMLDecode", tr.Doc.String())
		add("FuzzStreamMigrate", tr.Doc.String())
		if res, err := tr.Emb.Apply(tr.Doc); err == nil {
			add("FuzzStreamInvert", res.Tree.String())
		}
		for _, q := range tr.Queries {
			add("FuzzXPathParse", xpath.String(q))
			add("FuzzAnfaOptimize", xpath.String(q)+"\n"+tr.Doc.String())
		}
		for _, p := range tr.Emb.Paths {
			add("FuzzXPathParse", p.String())
		}
	}
	return fuzzseed.Write(root, "oracle-seed", seeds)
}
