package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"tpcds/internal/exec"
)

// digest is the FNV-1a checksum driver.Config.Digest computes: column
// names, then every value of every row in order, each followed by a
// separator byte.
func digest(r *exec.Result) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff
		h *= prime
	}
	for _, c := range r.Columns {
		mix(c)
	}
	var buf []byte
	for _, row := range r.Rows {
		for _, v := range row {
			buf = v.AppendGroupKey(buf[:0])
			mix(string(buf))
		}
	}
	return h
}

func digestHex(h uint64) string { return fmt.Sprintf("%016x", h) }

// pinnedSeeds is the number of seeds, 1..pinnedSeeds, whose answers
// are pinned per workload.
const pinnedSeeds = 10

// inputSeed maps a --seed value onto the pinned seed range for
// --wrap-seed: seeds 1..pinnedSeeds are used as given, larger ones wrap
// around, and 0 reads as pinnedSeeds. Seeds that wrap to the same value
// read the same input; the run prints the input seed it used.
func inputSeed(n uint64) uint64 {
	if n == 0 {
		return pinnedSeeds
	}
	return (n-1)%pinnedSeeds + 1
}

//go:embed pins
var pinFS embed.FS

// pinFile holds a workload's reference answers per seed.
type pinFile struct {
	Workload string             `json:"workload"`
	Seeds    map[string]answers `json:"seeds"`
}

// loadPins returns the pinned answers of workload at seed. A seed
// without pins is an error: an unchecked run never reads as correct.
func loadPins(workload string, seed uint64) (answers, error) {
	b, err := pinFS.ReadFile("pins/" + workload + ".json")
	if err != nil {
		return answers{}, fmt.Errorf("no pinned answers for workload %s: %w", workload, err)
	}
	var pf pinFile
	if err := json.Unmarshal(b, &pf); err != nil {
		return answers{}, fmt.Errorf("pins for %s: %w", workload, err)
	}
	a, ok := pf.Seeds[strconv.FormatUint(seed, 10)]
	if !ok || len(a.Queries) == 0 {
		return answers{}, fmt.Errorf("no pinned answers for workload %s at seed %d", workload, seed)
	}
	return a, nil
}

// writePins stores the answers of seeds 1..pinnedSeeds for a workload.
// Answers with a failed execution are refused: a failure is never a
// reference answer.
func writePins(dir, workload string, bySeed map[uint64]answers) error {
	seeds := make([]uint64, 0, len(bySeed))
	for seed, a := range bySeed {
		for k, v := range a.Queries {
			if v == failedAnswer {
				return fmt.Errorf("seed %d: query %s failed; refusing to pin it", seed, k)
			}
		}
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	// One seed per line keeps the file compact and its diffs readable.
	name, _ := json.Marshal(workload) // a string always encodes
	var b strings.Builder
	fmt.Fprintf(&b, "{\"workload\": %s, \"seeds\": {\n", name)
	for i, seed := range seeds {
		line, err := json.Marshal(bySeed[seed])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(seeds)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "%q: %s%s\n", strconv.FormatUint(seed, 10), line, sep)
	}
	b.WriteString("}}\n")
	return os.WriteFile(filepath.Join(dir, workload+".json"), []byte(b.String()), 0o644)
}

// tally is the correctness count of one or more passes.
type tally struct {
	attempted, correct, failed int
	mismatches                 []string // first few keys that differ
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.correct += o.correct
	t.failed += o.failed
	for _, m := range o.mismatches {
		if len(t.mismatches) < 10 {
			t.mismatches = append(t.mismatches, m)
		}
	}
}

func (t tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.correct) / float64(t.attempted)
}

// score compares a pass's answers with the pins. Every operation that
// either side knows of is attempted; it is correct only when both
// sides hold the same answer, so a failed, missing or extra operation
// lowers the fraction.
func score(got, pin answers) tally {
	var t tally
	check := func(key string, ok bool) {
		t.attempted++
		if ok {
			t.correct++
		} else if len(t.mismatches) < 10 {
			t.mismatches = append(t.mismatches, key)
		}
	}
	for _, k := range unionKeys(got.Queries, pin.Queries) {
		g, gok := got.Queries[k]
		p, pok := pin.Queries[k]
		if g == failedAnswer {
			t.failed++
		}
		check("query "+k, gok && pok && g == p && g != failedAnswer)
	}
	for _, k := range unionKeys(got.DM, pin.DM) {
		g, p := got.DM[k], pin.DM[k]
		for i := 0; i < len(g) || i < len(p); i++ {
			check(fmt.Sprintf("dm %s run %d", k, i+1), i < len(g) && i < len(p) && g[i] == p[i])
		}
	}
	return t
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
