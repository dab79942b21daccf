// Package cli defines the flags every rocc command spells identically —
// -json, -out, -parallel, -seed — so the tools compose predictably in
// scripts. Each helper registers the flag with the shared name, default,
// and doc string and returns the bound value.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"

	"rocc/internal/forward"
)

// JSON registers -json: machine-readable output instead of text tables.
func JSON(fs *flag.FlagSet) *bool {
	return fs.Bool("json", false, "emit machine-readable JSON instead of text tables")
}

// Out registers -out: the output destination file.
func Out(fs *flag.FlagSet) *string {
	return fs.String("out", "", "write output to this file (default stdout)")
}

// Parallel registers -parallel: the worker-pool size shared by every
// replication/sweep fan-out. Output is order-preserved, so results are
// byte-identical at any setting. Negative values are rejected at parse
// time with a usage error — a negative pool size used to fall silently
// through to the one-per-core default.
func Parallel(fs *flag.FlagSet) *int {
	p := new(int)
	fs.Var(parallelValue{p}, "parallel", "worker pool size (0 = one per core, 1 = serial); output is byte-identical at any setting")
	return p
}

// parallelValue validates -parallel at parse time.
type parallelValue struct{ p *int }

func (v parallelValue) String() string {
	if v.p == nil {
		return "0"
	}
	return strconv.Itoa(*v.p)
}

func (v parallelValue) Set(s string) error {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return fmt.Errorf("must be an integer, got %q", s)
	}
	if n < 0 {
		return fmt.Errorf("must be >= 0 (0 = one worker per core), got %d", n)
	}
	*v.p = n
	return nil
}

// Seed registers -seed: the master random seed all model seeds derive
// from. Negative inputs (which would underflow the unsigned seed space)
// and values past 2^64-1 are rejected at parse time with a usage error.
func Seed(fs *flag.FlagSet) *uint64 {
	s := new(uint64)
	*s = 1
	fs.Var(seedValue{s}, "seed", "master random seed")
	return s
}

// seedValue validates -seed at parse time.
type seedValue struct{ s *uint64 }

func (v seedValue) String() string {
	if v.s == nil {
		return "0"
	}
	return strconv.FormatUint(*v.s, 10)
}

func (v seedValue) Set(raw string) error {
	s := strings.TrimSpace(raw)
	if strings.HasPrefix(s, "-") {
		return fmt.Errorf("must be non-negative (seeds are unsigned 64-bit integers), got %q", raw)
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return fmt.Errorf("must be an unsigned 64-bit integer, got %q", raw)
	}
	*v.s = n
	return nil
}

// HTTP registers -http: the listen address for the live monitoring
// endpoint (/metrics, /healthz, /progress, /debug/pprof/). Empty (the
// default) disables the server; ":0" binds an ephemeral port — callers
// should log the bound address live.Server.Start reports. Malformed
// addresses are rejected at parse time with a usage error instead of
// surfacing as a confusing bind failure mid-run.
func HTTP(fs *flag.FlagSet) *string {
	a := new(string)
	fs.Var(httpValue{a}, "http",
		"serve live metrics/progress/pprof on this address (e.g. :9090; :0 picks a free port; empty = disabled)")
	return a
}

// httpValue validates -http at parse time.
type httpValue struct{ a *string }

func (v httpValue) String() string {
	if v.a == nil {
		return ""
	}
	return *v.a
}

func (v httpValue) Set(raw string) error {
	s := strings.TrimSpace(raw)
	if s == "" {
		// Explicit -http="" is an explicit disable.
		*v.a = ""
		return nil
	}
	host, port, err := net.SplitHostPort(s)
	if err != nil {
		return fmt.Errorf("must be host:port or :port (use :0 for a free port), got %q", raw)
	}
	n, err := strconv.Atoi(port)
	if err != nil || n < 0 || n > 65535 {
		return fmt.Errorf("port must be an integer in 0-65535, got %q", port)
	}
	if strings.ContainsAny(host, " \t/") {
		return fmt.Errorf("host %q is not a valid hostname or IP", host)
	}
	*v.a = s
	return nil
}

// Policy registers -policy: the forwarding-strategy spec shared by
// roccsim, roccviz, roccbench, roccfault and paradyn. A bare "bf" takes
// defaultBatch and is a usage error when defaultBatch < 1; malformed
// specs (unknown kinds, bf:0, abf:-1) are rejected at parse time too.
func Policy(fs *flag.FlagSet, defaultBatch int) *PolicyValue {
	v := &PolicyValue{defaultBatch: defaultBatch}
	fs.Var(v, "policy",
		"forwarding strategy: cf, bf (tool's batch default), bf:<n>, abf, or abf:<latency ms>")
	return v
}

// PolicyValue is the parsed -policy flag.
type PolicyValue struct {
	defaultBatch int
	strategy     forward.Strategy
}

// String implements flag.Value.
func (v *PolicyValue) String() string {
	if v == nil || v.strategy == nil {
		return ""
	}
	return v.strategy.String()
}

// Set implements flag.Value, validating the spec at parse time.
func (v *PolicyValue) Set(raw string) error {
	s, err := forward.ParseStrategy(raw, v.defaultBatch)
	if err != nil {
		return errors.New(strings.TrimPrefix(err.Error(), "forward: "))
	}
	v.strategy = s
	return nil
}

// Strategy returns the strategy the flag names, or nil when -policy was
// not given.
func (v *PolicyValue) Strategy() forward.Strategy { return v.strategy }

// nopCloser wraps stdout so Output callers can defer Close uniformly.
type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// Output opens the -out destination: the named file, or stdout when the
// path is empty.
func Output(path string) (io.WriteCloser, error) {
	if path == "" {
		return nopCloser{os.Stdout}, nil
	}
	return os.Create(path)
}
