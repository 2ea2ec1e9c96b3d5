package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// pinMain recomputes every pinned digest at both sizes from the current
// tree and writes perfbench/digests.json. Run it from the repository
// root, and only when an output is meant to change.
func pinMain(o *options) int {
	p, err := computePins(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pin:", err)
		return 1
	}
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pin:", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join("perfbench", "digests.json"), append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pin:", err)
		return 1
	}
	return 0
}

func computePins(o *options) (pinned, error) {
	p := pinned{Paper: map[string]string{}, Torus: map[string][]string{}, Serve: map[string][]string{}}
	runner := experiments.Runner{Workers: o.workers}
	for _, smoke := range []bool{true, false} {
		size := sizeName(smoke)
		dir, err := os.MkdirTemp(o.dir, "pin-")
		if err != nil {
			return p, err
		}
		d, err := regen(runner, paperScale(smoke), dir, nil)
		if err != nil {
			return p, err
		}
		p.Paper[size] = d

		for seed := int64(1); seed <= torusSeeds; seed++ {
			d, err := resultDigest(torusConfig(seed, smoke, o.workers))
			if err != nil {
				return p, err
			}
			p.Torus[size] = append(p.Torus[size], d)
		}

		serve := make([]string, servePool(smoke))
		err = runner.ForEach(len(serve), func(i int) error {
			var err error
			serve[i], err = resultDigest(serveConfig(i, smoke))
			return err
		})
		if err != nil {
			return p, err
		}
		p.Serve[size] = serve
	}
	return p, nil
}

// resultDigest runs cfg and digests its Result JSON.
func resultDigest(cfg sim.Config) (string, error) {
	res, err := sim.Run(cfg)
	if err != nil {
		return "", err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return digestOf(data), nil
}
