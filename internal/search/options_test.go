package search

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"casoffinder/internal/kernels"
	"casoffinder/internal/pipeline"
)

// TestOptionsOpen: every engine-flag rule both commands share, parsed from a
// command line the way they parse it, and what Open builds when the options
// are valid — a recovery policy for each simulator engine, none for cpu.
func TestOptionsOpen(t *testing.T) {
	const onCPU = "need the opencl or sycl engine"
	tests := []struct {
		name    string
		args    []string
		variant string // "" means auto
		wantErr string // "" means Open succeeds
		engine  string // the built engine's Name
		policy  pipeline.Resilience
	}{
		{name: "cpu default", args: nil, engine: "cpu"},
		{name: "cpu workers", args: []string{"-workers", "3"}, engine: "cpu"},
		{name: "cpu default seed spelled out", args: []string{"-fault-seed", "1"}, engine: "cpu"},
		{name: "opencl", args: []string{"-engine", "opencl"}, engine: "opencl-sim",
			policy: pipeline.Resilience{Seed: 1}},
		{name: "sycl recovery flags", args: []string{"-engine", "sycl", "-device", "radeonvii",
			"-fault-rate", "0.5", "-fault-seed", "9", "-fault-site", "gpu.hang", "-watchdog", "2s", "-max-retries", "-1"},
			engine: "sycl-sim", policy: pipeline.Resilience{MaxRetries: -1, Watchdog: 2 * time.Second, Seed: 9}},
		{name: "sycl forced variant", args: []string{"-engine", "sycl"}, variant: "base", engine: "sycl-sim",
			policy: pipeline.Resilience{Seed: 1}},

		{name: "unknown engine", args: []string{"-engine", "cuda"}, wantErr: `unknown engine "cuda"`},
		{name: "retired engine", args: []string{"-engine", "indexed"}, wantErr: `unknown engine "indexed"`},
		{name: "unknown device", args: []string{"-engine", "sycl", "-device", "H100"}, wantErr: `unknown device "H100"`},
		{name: "unknown variant", args: []string{"-engine", "sycl"}, variant: "opt9", wantErr: "want auto, base or opt1..opt4"},
		{name: "unknown variant on cpu", variant: "bitparallel", wantErr: "want auto, base or opt1..opt4"},
		{name: "fault rate above 1", args: []string{"-engine", "opencl", "-fault-rate", "1.5"}, wantErr: "outside [0, 1]"},
		{name: "fault rate below 0", args: []string{"-engine", "opencl", "-fault-rate", "-0.1"}, wantErr: "outside [0, 1]"},
		{name: "fault rate NaN", args: []string{"-engine", "sycl", "-fault-rate", "NaN"}, wantErr: "-fault-rate NaN outside [0, 1]"},
		{name: "fault rate NaN on cpu", args: []string{"-fault-rate", "NaN"}, wantErr: "-fault-rate NaN outside [0, 1]"},
		{name: "negative watchdog", args: []string{"-engine", "sycl", "-watchdog", "-1s"}, wantErr: "-watchdog -1s is negative"},
		{name: "negative workers", args: []string{"-workers", "-3"}, wantErr: "-workers -3 is negative"},
		{name: "unknown fault site", args: []string{"-engine", "opencl", "-fault-rate", "1", "-fault-site", "gpu.meltdown"}, wantErr: `unknown site "gpu.meltdown"`},
		{name: "retired fault site", args: []string{"-engine", "sycl", "-fault-site", "sycl.usm"}, wantErr: `unknown site "sycl.usm"`},
		{name: "fault rate on cpu", args: []string{"-fault-rate", "0.5"}, wantErr: onCPU},
		{name: "fault seed on cpu", args: []string{"-fault-seed", "7"}, wantErr: onCPU},
		{name: "fault site on cpu", args: []string{"-fault-site", "gpu.launch"}, wantErr: onCPU},
		{name: "watchdog on cpu", args: []string{"-watchdog", "1s"}, wantErr: onCPU},
		{name: "max retries on cpu", args: []string{"-max-retries", "3"}, wantErr: onCPU},
		{name: "no retries on cpu", args: []string{"-engine", "cpu", "-max-retries", "-1"}, wantErr: onCPU},
		{name: "device on cpu", args: []string{"-device", "H100"}, wantErr: onCPU},
		{name: "sycl workers", args: []string{"-engine", "sycl", "-workers", "2"}, wantErr: "-workers needs the cpu engine"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var o Options
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o.Register(fs)
			if err := fs.Parse(tt.args); err != nil {
				t.Fatal(err)
			}
			o.Variant = "auto"
			if tt.variant != "" {
				o.Variant = tt.variant
			}
			eng, res, err := o.Open(nil, nil)
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("Open = %v, want an error containing %q", err, tt.wantErr)
				}
				if eng != nil || res != nil {
					t.Errorf("failed Open returned engine %v, policy %v", eng, res)
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if eng.Name() != tt.engine {
				t.Fatalf("engine %s, want %s", eng.Name(), tt.engine)
			}
			if cpu, ok := eng.(*CPU); ok {
				if res != nil {
					t.Errorf("cpu engine came with a policy: %+v", *res)
				}
				if cpu.Workers != o.Workers {
					t.Errorf("Workers = %d, want %d", cpu.Workers, o.Workers)
				}
				return
			}
			if res == nil {
				t.Fatal("simulator engine has no recovery policy")
			}
			if res.MaxRetries != tt.policy.MaxRetries || res.Watchdog != tt.policy.Watchdog || res.Seed != tt.policy.Seed {
				t.Errorf("policy retries %d, watchdog %v, seed %d; want %d, %v, %d", res.MaxRetries, res.Watchdog, res.Seed,
					tt.policy.MaxRetries, tt.policy.Watchdog, tt.policy.Seed)
			}
			var cfg *simConfig
			switch e := eng.(type) {
			case *SimCL:
				cfg = (*simConfig)(e)
			case *SimSYCL:
				cfg = (*simConfig)(e)
			}
			if cfg.Resilience != res {
				t.Error("the engine does not run under the returned policy")
			}
			if wantAuto := tt.variant == ""; cfg.Auto != wantAuto || (!wantAuto && cfg.Variant != kernels.Base) {
				t.Errorf("Auto %v, Variant %v; want auto %v for variant %q", cfg.Auto, cfg.Variant, wantAuto, tt.variant)
			}
			if armed := cfg.Device.Faults() != nil; armed != (o.FaultRate > 0) {
				t.Errorf("fault injector armed = %v at -fault-rate %v", armed, o.FaultRate)
			}
		})
	}
}
