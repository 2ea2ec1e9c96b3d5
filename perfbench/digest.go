package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// pinned holds the known-good output digests, one set per workload and
// size. It is regenerated with --pin and checked on every run: a
// mismatch is a failed operation.
type pinned struct {
	Paper map[string]string   `json:"paper-regen"`      // size -> digest
	Torus map[string][]string `json:"torus4096-bursty"` // size -> digest per simulation seed
	Serve map[string][]string `json:"serve-mixed"`      // size -> digest per pool index
}

//go:embed digests.json
var digestsJSON []byte

func loadPins() (pinned, error) {
	var p pinned
	if err := json.Unmarshal(digestsJSON, &p); err != nil {
		return p, fmt.Errorf("parsing pinned digests: %w", err)
	}
	return p, nil
}

// sizeName keys the pinned digests by run size.
func sizeName(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "full"
}

// digestOf is the truncated hex SHA-256 every pin uses: 64 bits is
// plenty to catch a changed output, and keeps the pin file small.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// timingLine matches the "(fig1 in 12s)" lines stcc-paper prints after
// each experiment; they are the only nondeterministic part of its
// output.
var timingLine = regexp.MustCompile(`^\([^ ()]+ in [^ ()]+\)$`)

// stripTiming drops timing lines from a stcc-paper style report.
func stripTiming(out []byte) []byte {
	var b bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if timingLine.Match(sc.Bytes()) {
			continue
		}
		b.Write(sc.Bytes())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// reportDigest digests a regeneration: its report with timing lines
// stripped, then every CSV file in dir in name order.
func reportDigest(report []byte, dir string) (string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return "", err
	}
	sort.Strings(names)
	parts := [][]byte{stripTiming(report)}
	for _, n := range names {
		data, err := os.ReadFile(n)
		if err != nil {
			return "", err
		}
		parts = append(parts, []byte("--- "+filepath.Base(n)+"\n"), data)
	}
	return digestOf(parts...), nil
}
