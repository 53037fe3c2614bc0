// Package fuzzseed writes seed entries into the repository's checked-in
// Go fuzz corpora. It is the shared sink for every corpus emitter (the
// property oracle, the real-world schema corpus): seeds are encoded in
// the `go test fuzz v1` format and deduplicated against the files
// already present, so emitters converge on re-runs instead of piling
// up identical entries.
package fuzzseed

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// Dirs maps fuzz-target names to their seed-corpus directories
// relative to the repository root (Go's native fuzzing reads seed
// corpora from testdata/fuzz/<FuzzTarget> in the target's package).
var Dirs = map[string]string{
	"FuzzDTDParse":   "internal/dtd/testdata/fuzz/FuzzDTDParse",
	"FuzzXPathParse": "internal/xpath/testdata/fuzz/FuzzXPathParse",
	"FuzzXMLDecode":  "internal/xmltree/testdata/fuzz/FuzzXMLDecode",

	"FuzzStreamMigrate": "internal/embedding/testdata/fuzz/FuzzStreamMigrate",
	"FuzzStreamInvert":  "internal/embedding/testdata/fuzz/FuzzStreamInvert",
	"FuzzAnfaOptimize":  "internal/anfa/testdata/fuzz/FuzzAnfaOptimize",
}

// Encode renders one string input in the go-fuzz v1 corpus file format.
func Encode(input string) string {
	return "go test fuzz v1\nstring(" + strconv.Quote(input) + ")\n"
}

// Write seeds the corpora under root: for each fuzz target in seeds,
// every input is encoded and written to the target's corpus directory
// as "<prefix>-NNN". An input whose encoded form already exists in the
// directory — under any file name — is skipped, and existing file
// names are never overwritten. It returns the number of files written.
func Write(root, prefix string, seeds map[string][]string) (int, error) {
	written := 0
	for target, inputs := range seeds {
		rel, ok := Dirs[target]
		if !ok {
			return written, fmt.Errorf("fuzzseed: unknown fuzz target %q", target)
		}
		dir := filepath.Join(root, rel)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return written, err
		}
		have := map[string]bool{} // encoded bodies already on disk
		names := map[string]bool{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return written, err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return written, err
			}
			have[string(b)] = true
			names[e.Name()] = true
		}
		idx := 0
		for _, input := range inputs {
			body := Encode(input)
			if have[body] {
				continue
			}
			var name string
			for {
				name = fmt.Sprintf("%s-%03d", prefix, idx)
				idx++
				if !names[name] {
					break
				}
			}
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				return written, err
			}
			have[body] = true
			names[name] = true
			written++
		}
	}
	return written, nil
}
