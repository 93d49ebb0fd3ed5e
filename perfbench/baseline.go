package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// baselineJSON records the benchmark's fixed settings and the reference
// figures they were chosen from: the machine class, the campaign
// parameters with the seed and the fingerprint of the artifact it must
// produce, the set-up, build and segment counts, and each workload's model,
// open-loop rate, closed-loop volume and generator-lag bound.
//
//go:embed baseline.json
var baselineJSON []byte

type baseline struct {
	// Machine is the class of host the rates were chosen on; the file
	// also names its CPU model. Nproc is also the load's concurrency: the
	// open-loop senders, the closed-loop workers and the client's
	// connections per host.
	Machine struct {
		Nproc int `json:"nproc"`
	} `json:"machine"`
	Campaign struct {
		Seed uint64 `json:"seed"`
		// Fingerprint is the artifact the campaign must produce.
		Fingerprint string `json:"fingerprint"`
		Scale       int    `json:"scale"`
		Reps        int    `json:"reps"`
		UEWindows   int    `json:"ue_windows"`
	} `json:"campaign"`
	FleetServers int `json:"fleet_servers"`
	// Setups is how many times a run performs its set-up; setup_s is the
	// median.
	Setups int `json:"setups"`
	// Builds is how many times a run builds the campaign artifact (and
	// evaluates it); campaign_s and eval_s are medians.
	Builds int `json:"builds"`
	// Rounds is how many open-loop and how many closed-loop segments the
	// measured window is split into; latency and throughput are medians
	// over segments.
	Rounds int `json:"rounds"`
	// OpenShare is the share of the measured window spent in the open
	// loop; the closed loop gets the rest.
	OpenShare float64                    `json:"open_share"`
	Workloads map[string]workloadSetting `json:"workloads"`
}

type workloadSetting struct {
	Model string `json:"model"`
	// RateQPS is the open-loop arrival rate, well below half the
	// workload's closed-loop throughput. ClosedQPS sizes the closed loop.
	RateQPS   float64 `json:"rate_qps"`
	ClosedQPS float64 `json:"closed_qps"`
	// OpenRounds and ClosedRounds override the global round count for the
	// open- and closed-loop segments: fewer, longer segments where requests
	// are few, and one segment per retrain on the ingest workload.
	OpenRounds   int `json:"open_rounds,omitempty"`
	ClosedRounds int `json:"closed_rounds,omitempty"`
	// LagBoundMS is the validity bound on client.lag_ms.p99: generous
	// where the workload saturates both CPUs the generator shares.
	LagBoundMS float64 `json:"lag_p99_bound_ms"`
}

func loadBaseline() (*baseline, error) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return nil, fmt.Errorf("baseline.json: %w", err)
	}
	if b.Machine.Nproc < 1 {
		return nil, fmt.Errorf("baseline.json: machine.nproc %d", b.Machine.Nproc)
	}
	for name := range workloads {
		if _, ok := b.Workloads[name]; !ok {
			return nil, fmt.Errorf("baseline.json: no settings for workload %s", name)
		}
	}
	return &b, nil
}
