package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// digests.json pins the SHA-256 of each workload's canonical output for the
// seeds in pinnedSeeds (keyed "<seed>", or "<seed>@<seconds>s" for a
// workload whose output depends on the window). Regenerate it with -pin
// after an intended change of program output.
//
//go:embed digests.json
var digestsJSON []byte

var pins = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("e2e: bad embedded digests.json: %v", err))
	}
	return m
}()

// pinnedSeeds are the seeds -pin records: the default seed and a range
// that covers the usual choices of a ten-seed measurement.
func pinnedSeeds() []int64 {
	seeds := []int64{defaultSeed}
	for s := int64(0); s <= 20; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func pinKey(w workloadDef, seed int64, window time.Duration) string {
	key := strconv.FormatInt(seed, 10)
	if w.windowed {
		key += "@" + strconv.FormatFloat(window.Seconds(), 'g', -1, 64) + "s"
	}
	return key
}

// checkPinned compares the run's output digest with the pinned one when
// digests.json has an entry for this seed.
func checkPinned(r *result, w workloadDef, c *config) {
	want, ok := pins[w.Name][pinKey(w, c.seed, c.window)]
	r.Pinned = ok
	if ok && want != r.Digest {
		r.problem("output digest %s does not match the pinned %s (seed %d); see bench/README.md on re-pinning", r.Digest, want, c.seed)
	}
}

// printPins computes the reference digest of every selected workload for
// every pinned seed and writes the digests.json document; the sections of
// workloads not selected are kept as they are.
func printPins(w io.Writer, selected []workloadDef) error {
	out := map[string]map[string]string{}
	for name, section := range pins {
		out[name] = section
	}
	window := time.Duration(defaultSeconds * float64(time.Second))
	for _, wl := range selected {
		out[wl.Name] = map[string]string{}
		for _, seed := range pinnedSeeds() {
			d, err := wl.reference(seed, window)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			out[wl.Name][pinKey(wl, seed, window)] = d
		}
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
