package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// expected.json holds the output digests the checks compare against.
// A change that moves any simulated statistic moves a digest, and the
// run counts it as a failed operation. Regenerate with -digests only
// for a change meant to alter simulated results.
//
//go:embed expected.json
var expectedJSON []byte

type expectedDigests struct {
	// FiguresCold digests the rendered text of every experiment, which
	// is byte-identical to `soefig -exp all -scale tiny` output.
	FiguresCold string `json:"figures-cold"`
	// SkipHeavy maps a seed to the digest of one pass's results. Seeds
	// outside the table are checked against the cycle-by-cycle
	// reference engine instead.
	SkipHeavy map[string]string `json:"skip-heavy"`
	// ServeMixed maps a request's spec key to the digest of its exact
	// result, for every simulated entry of serve-mixed.yaml.
	ServeMixed map[string]string `json:"serve-mixed"`
}

func loadExpected() (expectedDigests, error) {
	var e expectedDigests
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestJSON digests the JSON encoding of v; Go encodes floats in
// shortest round-trip form, so equal values give equal digests.
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestBytes(b), nil
}

// skipSeedsInTable is how many seeds (0 upwards) -digests records for
// skip-heavy.
const skipSeedsInTable = 32

// printDigests recomputes every expected digest with this build and
// prints expected.json.
func printDigests(cfg config) error {
	var e expectedDigests
	fig, err := figuresPass(cfg, nil)
	if err != nil {
		return err
	}
	e.FiguresCold = fig.digest
	e.SkipHeavy = make(map[string]string)
	for s := uint64(0); s < skipSeedsInTable; s++ {
		d, _, err := skipPass(skipSpecs(s), nil)
		if err != nil {
			return err
		}
		e.SkipHeavy[strconv.FormatUint(s, 10)] = d
	}
	if e.ServeMixed, err = serveSpecDigests(); err != nil {
		return err
	}
	out, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(out))
	return err
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
