package persist

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/workload"
)

func TestStoreRoundTrip(t *testing.T) {
	spec := resources.DefaultServerSpec("t")
	s := profile.NewStore()
	s.ProfileWorkload(workload.SocialNetwork(), spec, nil)
	s.ProfileWorkload(workload.MatMul(), spec, nil)

	var buf bytes.Buffer
	if err := SaveStore(&buf, s, []string{"social-network", "matmul"}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := s.Get("social-network")
	loaded, ok := got.Get("social-network")
	if !ok || len(loaded) != len(orig) {
		t.Fatalf("round trip lost profiles: %d vs %d", len(loaded), len(orig))
	}
	for i := range orig {
		if orig[i].Metrics != loaded[i].Metrics {
			t.Fatalf("profile %d metrics differ after round trip", i)
		}
		if orig[i].Alloc != loaded[i].Alloc || orig[i].Demand != loaded[i].Demand {
			t.Fatalf("profile %d resources differ after round trip", i)
		}
	}
}

func TestSaveStoreMissingWorkload(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveStore(&buf, profile.NewStore(), []string{"ghost"}); err == nil {
		t.Fatal("missing workload must error")
	}
}

func TestLoadStoreRejectsMalformed(t *testing.T) {
	cases := []string{
		`not json`,
		`{"version": 2, "workloads": {}}`,
		`{"version": 1, "workloads": {"x": [{"workload":"x","function":"f","metrics":[1,2],"demand":[],"alloc":[]}]}}`,
	}
	for _, c := range cases {
		if _, err := LoadStore(strings.NewReader(c)); err == nil {
			t.Fatalf("malformed store %q accepted", c[:20])
		}
	}
}

func TestStoreFileHelpers(t *testing.T) {
	spec := resources.DefaultServerSpec("t")
	s := profile.NewStore()
	s.ProfileWorkload(workload.DD(), spec, nil)
	path := filepath.Join(t.TempDir(), "store.json")
	if err := SaveStoreFile(path, s, []string{"dd"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := LoadStore(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Get("dd"); !ok {
		t.Fatal("file round trip lost workload")
	}
}

// TestPersistImportsNoSchedulerOrLearner pins the layering: persist
// stores opaque payloads and must not grow back a dependency on the
// packages whose state it stores.
func TestPersistImportsNoSchedulerOrLearner(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"gsight/internal/sched"` || imp.Path.Value == `"gsight/internal/ml"` {
					t.Errorf("%s imports %s", name, imp.Path.Value)
				}
			}
		}
	}
}
