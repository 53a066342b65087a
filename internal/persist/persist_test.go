package persist

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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
	got := decodeStore(t, &buf)
	orig, _ := s.Get("social-network")
	loaded := got.Workloads["social-network"]
	if got.Version != 1 || len(loaded) != len(orig) {
		t.Fatalf("round trip lost profiles: version %d, %d vs %d", got.Version, len(loaded), len(orig))
	}
	for i := range orig {
		if !slices.Equal(orig[i].Metrics[:], loaded[i].Metrics) {
			t.Fatalf("profile %d metrics differ after round trip", i)
		}
		if !slices.Equal(orig[i].Alloc[:], loaded[i].Alloc) || !slices.Equal(orig[i].Demand[:], loaded[i].Demand) {
			t.Fatalf("profile %d resources differ after round trip", i)
		}
	}
}

// decodeStore reads a store file back in its on-disk form.
func decodeStore(t *testing.T, r io.Reader) storeJSON {
	t.Helper()
	var s storeJSON
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveStoreMissingWorkload(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveStore(&buf, profile.NewStore(), []string{"ghost"}); err == nil {
		t.Fatal("missing workload must error")
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
	if got := decodeStore(t, f); len(got.Workloads["dd"]) == 0 {
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
