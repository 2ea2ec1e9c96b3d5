package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// registryGoldenScale is small enough to run the whole registry in
// seconds while still driving every grid point through a real engine.
var registryGoldenScale = Scale{Warmup: 100, Measure: 300, BurstLow: 100, BurstHigh: 150}

// registryGolden is the SHA-256 of every PaperOrder entry's report
// (in order, into one buffer) followed by every CSV it writes, in
// sorted filename order. It pins the whole registry's output byte for
// byte: a refactor of how experiments are declared, scheduled or
// reported must leave it unchanged.
const registryGolden = "1be0a203a3ad5f3b53bdfd12a8aea3fe6da63306472ac00888c2a61a6727d816"

func TestRegistryOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	ctx := RunContext{Scale: registryGoldenScale, Out: &out, CSVDir: dir}
	for _, name := range PaperOrder {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s: not registered", name)
		}
		if err := e.Run(ctx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	h := sha256.New()
	h.Write(out.Bytes())
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != registryGolden {
		t.Errorf("registry output digest %s, want %s (%d CSVs, %d report bytes)",
			got, registryGolden, len(files), out.Len())
	}
}
