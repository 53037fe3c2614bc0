package server

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/search"
)

// handledErrors is the error→status contract: every error shape the
// server can see, with the classification toAPIError must give it.
// TestErrorTableComplete scans the guard, search and server sources
// and fails when an error type or sentinel exists that this table
// does not mention — adding a new error kind without deciding its
// HTTP rendering is a compile-adjacent error here, not a silent 500
// in production.
var handledErrors = map[string]struct {
	status int
	code   string
}{
	"server.apiError":          {0, ""},                              // passthrough: carries its own rendering
	"server.shedError":         {http.StatusTooManyRequests, "shed"}, // draining variant: 503
	"guard.LimitError":         {http.StatusRequestEntityTooLarge, "limit"},
	"guard.CancelError":        {http.StatusGatewayTimeout, "timeout"},
	"guard.FaultError":         {http.StatusInternalServerError, "internal"},
	"search.ErrDeadline":       {http.StatusGatewayTimeout, "timeout"},
	"search.ErrCanceled":       {http.StatusGatewayTimeout, "timeout"},
	"http.MaxBytesError":       {http.StatusRequestEntityTooLarge, "limit"},
	"context.DeadlineExceeded": {http.StatusGatewayTimeout, "timeout"},
	"context.Canceled":         {http.StatusGatewayTimeout, "timeout"},
}

// TestToAPIErrorTable drives toAPIError through every error shape of
// the contract, wrapped and unwrapped, and checks status, code and
// Retry-After against the table.
func TestToAPIErrorTable(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		covers     string // handledErrors key this case exercises
		status     int
		code       string
		retryAfter time.Duration
	}{
		{"apiError passthrough", badRequest("bad %s", "input"), "server.apiError", http.StatusBadRequest, "invalid", 0},
		{"apiError not_found", notFound("no embedding"), "server.apiError", http.StatusUnprocessableEntity, "not_found", 0},
		{"shed queue_full", &shedError{reason: shedQueueFull, retryAfter: 2 * time.Second}, "server.shedError", http.StatusTooManyRequests, "shed", 2 * time.Second},
		{"shed queue_timeout", &shedError{reason: shedQueueTimeout, retryAfter: time.Second}, "server.shedError", http.StatusTooManyRequests, "shed", time.Second},
		{"shed draining", &shedError{reason: shedDraining, retryAfter: 3 * time.Second}, "server.shedError", http.StatusServiceUnavailable, "draining", 3 * time.Second},
		{"limit", &guard.LimitError{Limit: "nodes", Max: 10, Context: "parse"}, "guard.LimitError", http.StatusRequestEntityTooLarge, "limit", 0},
		{"limit wrapped", fmt.Errorf("migrate: %w", &guard.LimitError{Limit: "depth", Max: 3, Context: "x"}), "guard.LimitError", http.StatusRequestEntityTooLarge, "limit", 0},
		{"max bytes", &http.MaxBytesError{Limit: 1024}, "http.MaxBytesError", http.StatusRequestEntityTooLarge, "limit", 0},
		{"cancel", &guard.CancelError{Context: "search", Err: context.Canceled}, "guard.CancelError", http.StatusGatewayTimeout, "timeout", 0},
		{"cancel wrapped", fmt.Errorf("pipeline: %w", &guard.CancelError{Context: "s", Err: context.DeadlineExceeded}), "guard.CancelError", http.StatusGatewayTimeout, "timeout", 0},
		{"search deadline", search.ErrDeadline, "search.ErrDeadline", http.StatusGatewayTimeout, "timeout", 0},
		{"search deadline wrapped", fmt.Errorf("find: %w", search.ErrDeadline), "search.ErrDeadline", http.StatusGatewayTimeout, "timeout", 0},
		{"search canceled", search.ErrCanceled, "search.ErrCanceled", http.StatusGatewayTimeout, "timeout", 0},
		{"context deadline", context.DeadlineExceeded, "context.DeadlineExceeded", http.StatusGatewayTimeout, "timeout", 0},
		{"context canceled", fmt.Errorf("op: %w", context.Canceled), "context.Canceled", http.StatusGatewayTimeout, "timeout", 0},
		{"fault", &guard.FaultError{Stage: "migrate"}, "guard.FaultError", http.StatusInternalServerError, "internal", 0},
		{"fault wrapped", fmt.Errorf("migrate: %w", &guard.FaultError{Stage: "m"}), "guard.FaultError", http.StatusInternalServerError, "internal", 0},
		{"unclassified", errors.New("boom"), "", http.StatusInternalServerError, "internal", 0},
		{"unclassified wrapped", fmt.Errorf("outer: %w", errors.New("boom")), "", http.StatusInternalServerError, "internal", 0},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		ae := toAPIError(c.err)
		if ae.status != c.status || ae.code != c.code {
			t.Errorf("%s: toAPIError = (%d, %q), want (%d, %q)", c.name, ae.status, ae.code, c.status, c.code)
		}
		if ae.retryAfter != c.retryAfter {
			t.Errorf("%s: retryAfter = %v, want %v", c.name, ae.retryAfter, c.retryAfter)
		}
		if ae.msg == "" {
			t.Errorf("%s: empty message", c.name)
		}
		if c.covers != "" {
			covered[c.covers] = true
		}
	}
	for key := range handledErrors {
		if !covered[key] {
			t.Errorf("handledErrors entry %q has no test case exercising it", key)
		}
	}
}

// errorDecls scans a package directory for error-shaped declarations:
// type names ending in "Error" and exported sentinel vars named Err*.
func errorDecls(t *testing.T, dir, pkgPrefix string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	errType := regexp.MustCompile(`Error$`)
	errVar := regexp.MustCompile(`^Err[A-Z]`)
	var out []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if errType.MatchString(s.Name.Name) {
							out = append(out, pkgPrefix+"."+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if errVar.MatchString(n.Name) {
								out = append(out, pkgPrefix+"."+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestErrorTableComplete is the lint half of the contract: every
// error type (*Error) and sentinel (Err*) declared in the packages
// whose errors reach toAPIError must appear in handledErrors. A new
// guard.FooError or search.ErrBar fails this test until both
// toAPIError and the table above classify it.
func TestErrorTableComplete(t *testing.T) {
	decls := append(errorDecls(t, "../guard", "guard"), errorDecls(t, "../search", "search")...)
	decls = append(decls, errorDecls(t, ".", "server")...)
	if len(decls) < 7 {
		t.Fatalf("error scan looks vacuous: found only %v", decls)
	}
	for _, d := range decls {
		if _, ok := handledErrors[d]; !ok {
			t.Errorf("%s is not in handledErrors: decide its HTTP rendering in toAPIError and add it to the table", d)
		}
	}
}
