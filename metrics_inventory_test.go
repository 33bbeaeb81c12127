package dmc_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dmc/internal/obs"
)

// registeredMetrics returns every dmc_* series the module's non-test
// code registers: the literal names passed to an obs.Registry
// constructor, plus the series obs.Trace derives from each literal
// TraceConfig Prefix.
func registeredMetrics(t *testing.T) map[string]string {
	t.Helper()
	ctors := map[string]bool{"Counter": true, "CounterVec": true, "Gauge": true, "GaugeVec": true, "Histogram": true, "HistogramVec": true}
	found := map[string]string{} // name → file
	var prefixes []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // a separate module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		lit := func(e ast.Expr) string {
			bl, ok := e.(*ast.BasicLit)
			if !ok || bl.Kind != token.STRING {
				return ""
			}
			s, _ := strconv.Unquote(bl.Value)
			if !strings.HasPrefix(s, "dmc_") {
				return ""
			}
			return s
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && ctors[sel.Sel.Name] && len(n.Args) > 0 {
					if name := lit(n.Args[0]); name != "" {
						found[name] = path
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Prefix" {
					if p := lit(n.Value); p != "" {
						prefixes = append(prefixes, p)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prefixes {
		reg := obs.NewRegistry()
		obs.Trace(http.NotFoundHandler(), obs.TraceConfig{Registry: reg, Prefix: p})
		var buf strings.Builder
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var fams []obs.JSONFamily
		if err := json.Unmarshal([]byte(buf.String()), &fams); err != nil {
			t.Fatal(err)
		}
		for _, f := range fams {
			found[f.Name] = "obs.Trace prefix " + p
		}
	}
	return found
}

// documentedMetrics returns the dmc_* names in the first cell of the
// README's table rows.
func documentedMetrics(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`(dmc_[a-z0-9_]+)")
	doc := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			doc[m[1]] = true
		}
	}
	return doc
}

// TestMetricsDocumented keeps the README's metrics tables and the code
// in step: every registered dmc_* series has a row, and every row names
// a registered series.
func TestMetricsDocumented(t *testing.T) {
	reg, doc := registeredMetrics(t), documentedMetrics(t)
	if len(reg) == 0 || len(doc) == 0 {
		t.Fatalf("inventory is empty: %d registered, %d documented", len(reg), len(doc))
	}
	var missing, stale []string
	for name, where := range reg {
		if !doc[name] {
			missing = append(missing, name+" ("+where+")")
		}
	}
	for name := range doc {
		if _, ok := reg[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("registered series without a README metrics row:\n  %s", strings.Join(missing, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("README metrics rows naming no registered series:\n  %s", strings.Join(stale, "\n  "))
	}
}
