package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"

	"rocc/internal/core"
)

// Runner is one worker slot: a recipe for starting (and, after a
// failure, restarting) a worker process. The driver runs one slot
// goroutine per Runner; a slot whose workers keep failing is quarantined
// and the rest of the fleet absorbs its shards.
type Runner interface {
	// Name identifies the slot in warnings and quarantine decisions
	// ("worker-0", "ssh host3").
	Name() string
	// Start launches a fresh worker. The context covers the worker's
	// whole lifetime, not just startup.
	Start(ctx context.Context) (Worker, error)
}

// Worker executes shards one at a time. Implementations must honor ctx
// cancellation in Run — a hung worker is killed through it — and must
// tolerate Close being called more than once, including concurrently
// with Run.
type Worker interface {
	// Run executes one shard (jobs in order, one Result per job). The id
	// is the shard index; protocol-based workers echo it so a desynced
	// stream is detected instead of mismerged.
	Run(ctx context.Context, id int, jobs []Job) ([]core.Result, error)
	// Close tears the worker down (kills the process for subprocess
	// workers). Safe to call multiple times.
	Close() error
}

// SubprocessRunner starts workers as local child processes speaking the
// length-prefixed JSON protocol on stdin/stdout — the `roccsweep -worker`
// mode. The zero value re-executes the current binary with -worker,
// which is what roccsweep uses for local fan-out.
type SubprocessRunner struct {
	// Binary is the worker executable; empty means the current binary
	// (os.Executable).
	Binary string
	// Args are the worker arguments; nil means ["-worker"].
	Args []string
	// Env is the child environment; nil inherits the parent's.
	Env []string
	// Stderr receives the worker's stderr; nil means the parent's.
	Stderr io.Writer
	// Label distinguishes slots in logs; empty means "subprocess".
	Label string
}

// Name implements Runner.
func (r SubprocessRunner) Name() string {
	if r.Label != "" {
		return r.Label
	}
	return "subprocess"
}

// Start implements Runner.
func (r SubprocessRunner) Start(ctx context.Context) (Worker, error) {
	bin := r.Binary
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("dist: resolve current binary: %w", err)
		}
		bin = exe
	}
	args := r.Args
	if args == nil {
		args = []string{"-worker"}
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = r.Env
	if r.Stderr != nil {
		cmd.Stderr = r.Stderr
	} else {
		cmd.Stderr = os.Stderr
	}
	return startProcWorker(ctx, cmd, r.Name())
}

// SSHRunner starts workers on a remote host through the ssh binary: the
// same stdin/stdout protocol, tunneled over `ssh host <command>`. The
// remote host needs a roccsweep binary on its PATH (or Command pointing
// at one); no daemon, port, or shared filesystem is required.
type SSHRunner struct {
	// Host is the ssh destination (host or user@host).
	Host string
	// Command is the remote worker command line; empty means
	// "roccsweep -worker".
	Command string
	// SSH is the client binary; empty means "ssh".
	SSH string
	// ExtraArgs precede the host (e.g. -o BatchMode=yes -i key).
	ExtraArgs []string
	// Stderr receives the ssh client's stderr; nil means the parent's.
	Stderr io.Writer
}

// Name implements Runner.
func (r SSHRunner) Name() string { return "ssh " + r.Host }

// Start implements Runner.
func (r SSHRunner) Start(ctx context.Context) (Worker, error) {
	ssh := r.SSH
	if ssh == "" {
		ssh = "ssh"
	}
	command := r.Command
	if command == "" {
		command = "roccsweep -worker"
	}
	args := append(append([]string{}, r.ExtraArgs...), r.Host, command)
	cmd := exec.Command(ssh, args...)
	if r.Stderr != nil {
		cmd.Stderr = r.Stderr
	} else {
		cmd.Stderr = os.Stderr
	}
	return startProcWorker(ctx, cmd, r.Name())
}

// procWorker drives one worker process over the wire protocol.
type procWorker struct {
	name string
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader

	closeOnce sync.Once
	closeErr  error
}

func startProcWorker(ctx context.Context, cmd *exec.Cmd, name string) (Worker, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("dist: %s: stdin: %w", name, err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("dist: %s: stdout: %w", name, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: %s: start: %w", name, err)
	}
	return &procWorker{name: name, cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// Run implements Worker: one request/response exchange, with the process
// killed if ctx expires first (a hung or wedged worker holds no locks we
// need — a fresh one takes its place).
func (w *procWorker) Run(ctx context.Context, id int, jobs []Job) ([]core.Result, error) {
	a := attemptFrom(ctx, id)
	if err := writeFrame(w.in, request{V: wireVersion, ID: id, Jobs: jobs, Trace: a.wireTrace}); err != nil {
		w.Close()
		return nil, fmt.Errorf("dist: %s: send shard %d: %w", w.name, id, err)
	}
	type reply struct {
		resp response
		err  error
	}
	ch := make(chan reply, 1)
	go func() {
		var resp response
		err := readFrame(w.out, &resp)
		ch <- reply{resp, err}
	}()
	select {
	case <-ctx.Done():
		// Killing the process unblocks the reader goroutine via pipe EOF.
		w.Close()
		return nil, ctx.Err()
	case r := <-ch:
		if r.err != nil {
			w.Close()
			return nil, fmt.Errorf("dist: %s: shard %d: %w", w.name, id, r.err)
		}
		if r.resp.ID != id {
			w.Close()
			return nil, fmt.Errorf("dist: %s: response for shard %d, want %d (stream desynced)", w.name, r.resp.ID, id)
		}
		if r.resp.Error != "" {
			return nil, errors.New(r.resp.Error)
		}
		a.spans = r.resp.Spans
		return r.resp.Results, nil
	}
}

// Close implements Worker: kill the process and reap it.
func (w *procWorker) Close() error {
	w.closeOnce.Do(func() {
		w.in.Close()
		if w.cmd.Process != nil {
			w.cmd.Process.Kill()
		}
		w.closeErr = w.cmd.Wait()
	})
	return w.closeErr
}

// InProcessRunner executes shards on the driver's own goroutines — no
// subprocess, no serialization. It is the reference Runner for tests
// (wrap it in Chaos for fault injection) and a way to mix local cores
// into a remote fleet.
type InProcessRunner struct {
	// ID distinguishes slots in logs.
	ID int
}

// Name implements Runner.
func (r InProcessRunner) Name() string { return fmt.Sprintf("inproc-%d", r.ID) }

// Start implements Runner.
func (r InProcessRunner) Start(ctx context.Context) (Worker, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return inProcWorker{}, nil
}

type inProcWorker struct{}

func (inProcWorker) Run(ctx context.Context, id int, jobs []Job) ([]core.Result, error) {
	// The wire-protocol worker's path, minus the pipes.
	a := attemptFrom(ctx, id)
	res, spans, err := executeShard(ctx, jobs, a.wireTrace)
	a.spans = spans
	return res, err
}

func (inProcWorker) Close() error { return nil }

// LocalRunners returns n subprocess runners that re-execute the current
// binary with -worker — the standard local multi-process fleet.
func LocalRunners(n int) []Runner {
	rs := make([]Runner, n)
	for i := range rs {
		rs[i] = SubprocessRunner{Label: fmt.Sprintf("worker-%d", i)}
	}
	return rs
}
