// Command metriclint enforces the repo's metric-naming contract (see
// DESIGN.md, "Observability") by scanning registration call sites:
//
//   - every name passed to Counter/Gauge/Histogram (and their *L
//     labeled variants) matches ^xse_[a-z0-9_]+$;
//   - kind-specific suffixes hold: counters end in _total, histograms
//     in _seconds/_bytes/_size/_len, gauges in neither;
//   - no name is registered as two different kinds, and no unlabeled
//     name is registered from two different call sites (labeled
//     families may mint many children from one site);
//   - a labeled family uses one label key everywhere: every *L call
//     site for the same name must pass the same (literal) label key,
//     so a family like xse_server_shed_total{reason=...} cannot grow a
//     second dimension by accident;
//   - every registration carries a non-empty (literal) help string, so
//     the /metrics exposition's # HELP lines stay meaningful.
//
// It also enforces the wide-event field contract (DESIGN.md, "Wide
// events and explainability") on obs.Event builder calls
// (Str/Int/Float/Bool/Dur with a literal key):
//
//   - keys are snake_case (^[a-z][a-z0-9_]*$);
//   - Dur keys end in _ms (durations render as float milliseconds);
//   - no key repeats within one builder chain.
//
// And it holds every stage declaration (obs.NewStage(span, hist, key),
// DESIGN.md "Span tracer") to the same contract:
//
//   - the span name is a string literal of dot-separated snake_case
//     words (pipeline.parse);
//   - the histogram is nil or registered inline, by a Histogram or
//     HistogramL call whose name ends in _seconds, and every _seconds
//     histogram is registered inside a stage declaration, so a timing
//     histogram is observed by its stage and nowhere else;
//   - the key is a string literal: "" (no field) or snake_case ending
//     in _ms, and no two stage declarations of one package share it.
//
// Only string-literal names are checked; _test.go files are skipped
// (tests may register throwaway names). Exit status 1 on any finding.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

var nameRE = regexp.MustCompile(`^xse_[a-z0-9_]+$`)

// spanRE is the stage span-name contract: dot-separated snake_case.
var spanRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// eventKeyRE is the wide-event field-name contract: snake_case, no
// leading digit or underscore.
var eventKeyRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// eventKeyMethods are the obs.Event builder methods whose first
// argument is a field key.
var eventKeyMethods = map[string]bool{
	"Str": true, "Int": true, "Float": true, "Bool": true, "Dur": true,
}

// kindOf maps registration method names to a metric kind; the L
// variants mint labeled children.
var kindOf = map[string]string{
	"Counter": "counter", "CounterL": "counter",
	"Gauge": "gauge", "GaugeL": "gauge",
	"Histogram": "histogram", "HistogramL": "histogram",
}

type site struct {
	pos     token.Position
	kind    string
	labeled bool
	// labelKey is the literal label key passed to an *L registration
	// ("" when unlabeled or when the key is not a string literal).
	labelKey string
}

// labelKeyArg extracts the literal label key of an *L registration
// call: CounterL/GaugeL take (name, help, key, value), HistogramL
// takes (name, help, buckets, key, value).
func labelKeyArg(method string, args []ast.Expr) string {
	idx := 2
	if method == "HistogramL" {
		idx = 3
	}
	if len(args) <= idx {
		return ""
	}
	key, _ := stringLit(args[idx])
	return key
}

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"internal", "cmd"}
	}
	fset := token.NewFileSet()
	sites := map[string][]site{}                        // metric name -> registration sites
	eventSites := 0                                     // event-builder field sites checked
	stageSites := 0                                     // stage declarations checked
	stageKeys := map[string]map[string]token.Position{} // package dir -> event key -> first stage
	bad := 0
	fail := func(pos token.Position, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "metriclint: %s: %s\n", pos, fmt.Sprintf(format, args...))
		bad++
	}

	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			// Import names of this file: a call like flag.Int("max-input",
			// ...) is a package function, not an event-builder method, and
			// must not be linted as a field key.
			imports := map[string]bool{}
			for _, imp := range file.Imports {
				if imp.Name != nil {
					imports[imp.Name.Name] = true
					continue
				}
				p, err := strconv.Unquote(imp.Path.Value)
				if err == nil {
					imports[p[strings.LastIndex(p, "/")+1:]] = true
				}
			}
			// Event-builder calls in this file, for the per-chain
			// duplicate-key check.
			type evCall struct {
				recv *ast.CallExpr // inner chained call, nil at chain base
				key  string
				pos  token.Position
			}
			evCalls := map[*ast.CallExpr]evCall{}
			// Histogram registrations that are a stage's histogram
			// argument (a stage call is visited before its arguments).
			stageHists := map[*ast.CallExpr]bool{}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel.Sel.Name == "NewStage" && len(call.Args) == 3 {
					stageSites++
					checkStage(fset, call, stageHists, stageKeys, filepath.Dir(path), fail)
					return true
				}
				if eventKeyMethods[sel.Sel.Name] && len(call.Args) >= 2 {
					if id, ok := sel.X.(*ast.Ident); !ok || !imports[id.Name] {
						if key, ok := stringLit(call.Args[0]); ok {
							pos := fset.Position(call.Args[0].Pos())
							if !eventKeyRE.MatchString(key) {
								fail(pos, "event field %q is not snake_case (%s)", key, eventKeyRE)
							} else if sel.Sel.Name == "Dur" && !strings.HasSuffix(key, "_ms") {
								fail(pos, "duration field %q must end in _ms", key)
							}
							ec := evCall{key: key, pos: pos}
							if inner, ok := sel.X.(*ast.CallExpr); ok {
								ec.recv = inner
							}
							evCalls[call] = ec
						}
					}
				}
				kind, ok := kindOf[sel.Sel.Name]
				if !ok || len(call.Args) == 0 {
					return true
				}
				name, ok := stringLit(call.Args[0])
				if !ok {
					return true
				}
				pos := fset.Position(call.Args[0].Pos())
				if !nameRE.MatchString(name) {
					fail(pos, "metric %q does not match %s", name, nameRE)
					return true
				}
				if len(call.Args) > 1 {
					if help, ok := stringLit(call.Args[1]); ok && strings.TrimSpace(help) == "" {
						fail(fset.Position(call.Args[1].Pos()), "metric %q has an empty help string", name)
					}
				}
				switch kind {
				case "counter":
					if !strings.HasSuffix(name, "_total") {
						fail(pos, "counter %q must end in _total", name)
					}
				case "histogram":
					if !hasAnySuffix(name, "_seconds", "_bytes", "_size", "_len") {
						fail(pos, "histogram %q must end in _seconds, _bytes, _size or _len", name)
					}
					if strings.HasSuffix(name, "_seconds") && !stageHists[call] {
						fail(pos, "timing histogram %q must be registered inside its obs.NewStage declaration", name)
					}
				case "gauge":
					if hasAnySuffix(name, "_total", "_seconds") {
						fail(pos, "gauge %q must not use a counter/histogram suffix", name)
					}
				}
				labeled := strings.HasSuffix(sel.Sel.Name, "L")
				s := site{pos: pos, kind: kind, labeled: labeled}
				if labeled {
					s.labelKey = labelKeyArg(sel.Sel.Name, call.Args)
				}
				sites[name] = append(sites[name], s)
				return true
			})
			// Duplicate keys within one builder chain: walk each chain
			// from its head (a call no other event call chains off).
			innerCalls := map[*ast.CallExpr]bool{}
			for _, ec := range evCalls {
				if ec.recv != nil {
					if _, ok := evCalls[ec.recv]; ok {
						innerCalls[ec.recv] = true
					}
				}
			}
			for call, ec := range evCalls {
				eventSites++
				if innerCalls[call] {
					continue
				}
				seen := map[string]token.Position{}
				for e := ec; ; {
					if prev, dup := seen[e.key]; dup {
						fail(e.pos, "event field %q repeated in one chain (also at %s)", e.key, prev)
					} else {
						seen[e.key] = e.pos
					}
					if e.recv == nil {
						break
					}
					next, ok := evCalls[e.recv]
					if !ok {
						break
					}
					e = next
				}
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
			os.Exit(1)
		}
	}

	for name, regs := range sites {
		for _, s := range regs[1:] {
			if s.kind != regs[0].kind {
				fail(s.pos, "metric %q registered as %s here but as %s at %s",
					name, s.kind, regs[0].kind, regs[0].pos)
			}
		}
		// An unlabeled instrument has one owner; a second call site is a
		// duplicate registration (labeled families are exempt: one site
		// may mint children per label value).
		var unlabeled []site
		for _, s := range regs {
			if !s.labeled {
				unlabeled = append(unlabeled, s)
			}
		}
		for i := 1; i < len(unlabeled); i++ {
			fail(unlabeled[i].pos, "metric %q already registered at %s", name, unlabeled[0].pos)
		}
		// Labeled families are one-dimensional by convention: the same
		// literal label key at every call site.
		var keyed []site
		for _, s := range regs {
			if s.labeled && s.labelKey != "" {
				keyed = append(keyed, s)
			}
		}
		for i := 1; i < len(keyed); i++ {
			if s := keyed[i]; s.labelKey != keyed[0].labelKey {
				fail(s.pos, "metric %q labeled %q here but %q at %s",
					name, s.labelKey, keyed[0].labelKey, keyed[0].pos)
			}
		}
	}

	if bad > 0 {
		fmt.Fprintf(os.Stderr, "metriclint: %d problem(s)\n", bad)
		os.Exit(1)
	}
	fmt.Printf("metriclint: %d metric registration sites, %d event field sites, %d stage declarations clean\n",
		countSites(sites), eventSites, stageSites)
}

// checkStage lints one obs.NewStage(span, hist, key) call: a literal
// span name, a nil or inline _seconds histogram (recorded in
// stageHists for the registration check), and a literal key that is
// "" or snake_case ending in _ms and unique among the stages of the
// package in dir.
func checkStage(fset *token.FileSet, call *ast.CallExpr, stageHists map[*ast.CallExpr]bool,
	stageKeys map[string]map[string]token.Position, dir string, fail func(token.Position, string, ...any)) {
	pos := fset.Position(call.Pos())
	if span, ok := stringLit(call.Args[0]); !ok || !spanRE.MatchString(span) {
		fail(pos, "stage span name must be a dot-separated snake_case literal (%s)", spanRE)
	}
	if id, ok := call.Args[1].(*ast.Ident); !ok || id.Name != "nil" {
		h, _ := call.Args[1].(*ast.CallExpr)
		name, lit := "", false
		if h != nil && len(h.Args) > 0 {
			if sel, ok := h.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Histogram" || sel.Sel.Name == "HistogramL") {
				name, lit = stringLit(h.Args[0])
				stageHists[h] = true
			}
		}
		if !lit || !strings.HasSuffix(name, "_seconds") {
			fail(pos, "stage histogram must be nil or an inline Histogram/HistogramL registration of a literal _seconds name")
		}
	}
	key, ok := stringLit(call.Args[2])
	if !ok || key != "" && (!eventKeyRE.MatchString(key) || !strings.HasSuffix(key, "_ms")) {
		fail(pos, "stage event key must be a literal \"\" or snake_case ending in _ms")
		return
	}
	if key == "" {
		return
	}
	if stageKeys[dir] == nil {
		stageKeys[dir] = map[string]token.Position{}
	}
	if prev, dup := stageKeys[dir][key]; dup {
		fail(pos, "stage event key %q already used by the stage at %s", key, prev)
	}
	stageKeys[dir][key] = pos
}

// stringLit unquotes e when it is a string literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

func hasAnySuffix(s string, suffixes ...string) bool {
	for _, suf := range suffixes {
		if strings.HasSuffix(s, suf) {
			return true
		}
	}
	return false
}

func countSites(sites map[string][]site) int {
	n := 0
	for _, regs := range sites {
		n += len(regs)
	}
	return n
}
