package telemetry

import (
	"fmt"
	"io"
	"sync"

	"vscale/internal/sim"
)

// Sink is the shared output side of telemetry: at most one scrape
// server and at most one JSONL stream, fed by any number of collectors.
// Publishing to the server is lock-free (an atomic swap); Append is
// serialised by a mutex because parallel repeat-runs may flush
// concurrently — deterministic JSONL ordering is the collectors' job
// (the fleet control plane appends live from its single goroutine;
// parallel sweeps buffer per run and flush in submission order).
type Sink struct {
	srv *Server

	mu  sync.Mutex
	out io.Writer
}

// NewSink builds a sink. addr == "" disables the scrape server; out ==
// nil disables the JSONL stream. A sink with neither is legal and inert
// (Enabled reports false), which lets call sites stay unconditional.
// Like any io.Writer, out must not retain the slices it is given: live
// collectors reuse their record buffer every epoch.
func NewSink(addr string, out io.Writer) (*Sink, error) {
	s := &Sink{out: out}
	if addr != "" {
		srv, err := NewServer(addr)
		if err != nil {
			return nil, err
		}
		s.srv = srv
	}
	return s, nil
}

// Enabled reports whether the sink has anywhere to deliver telemetry.
func (s *Sink) Enabled() bool { return s != nil && (s.srv != nil || s.out != nil) }

// Server returns the scrape server (nil when -telemetry-addr was not
// given).
func (s *Sink) Server() *Server { return s.srv }

// Append writes one or more complete JSONL records to the stream
// (no-op without one).
func (s *Sink) Append(records []byte) error {
	if s.out == nil || len(records) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.out.Write(records); err != nil {
		return fmt.Errorf("telemetry: append: %w", err)
	}
	return nil
}

// Close shuts the scrape server down. The JSONL writer is owned by the
// caller (it is usually an *os.File the CLI closes itself).
func (s *Sink) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// Collector owns one registry and drives it through collection epochs:
// the simulation-side code samples its sources into Registry()'s
// families, then calls EpochDone, which renders the epoch for whichever
// outputs the sink has: the exposition snapshot for its scrape server
// and the JSONL record for its stream.
//
// A live collector (buffered=false) appends each record to the sink as
// it happens — correct when exactly one goroutine collects, like the
// fleet control plane. A buffered collector accumulates records locally
// so concurrent repeat-runs can each collect privately and Flush in
// submission order after the barrier, keeping the JSONL byte-identical
// for any worker count.
type Collector struct {
	sink     *Sink
	reg      *Registry
	buffered bool

	epoch int
	rec   []byte // the epoch's JSONL record, reused every epoch
	buf   []byte
	err   error
}

// NewCollector builds a collector over the sink with the given base
// labels on every series. A nil sink yields a nil collector, and every
// method on a nil collector is a no-op — call sites stay unconditional.
func NewCollector(sink *Sink, buffered bool, baseKV ...string) *Collector {
	if !sink.Enabled() {
		return nil
	}
	return &Collector{sink: sink, reg: NewRegistry(baseKV...), buffered: buffered}
}

// Registry returns the collector's registry (nil on a nil collector).
func (c *Collector) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

// Epoch returns the index the next EpochDone will record.
func (c *Collector) Epoch() int {
	if c == nil {
		return 0
	}
	return c.epoch
}

// EpochDone closes one collection epoch at virtual time now: with a
// scrape server it renders and publishes the exposition snapshot, and
// with a JSONL stream it emits the epoch's record (live or into the
// buffer). A format nobody consumes is not rendered. The live record is
// written from a buffer reused every epoch, so the sink's writer must
// not retain it. Errors are latched into Err rather than returned —
// collection sites sit inside control loops that should not grow error
// plumbing for an observability stream.
func (c *Collector) EpochDone(now sim.Time) {
	if c == nil {
		return
	}
	if srv := c.sink.srv; srv != nil {
		srv.Publish(c.reg.RenderProm())
	}
	if c.sink.out != nil {
		rec, err := c.reg.AppendJSONL(c.rec[:0], c.epoch, now)
		c.rec = rec
		switch {
		case err != nil:
			c.fail(err)
		case c.buffered:
			c.buf = append(c.buf, rec...)
		default:
			if err := c.sink.Append(rec); err != nil {
				c.fail(err)
			}
		}
	}
	c.epoch++
}

// Flush appends a buffered collector's records to the sink (no-op when
// live or empty).
func (c *Collector) Flush() error {
	if c == nil || len(c.buf) == 0 {
		return nil
	}
	err := c.sink.Append(c.buf)
	c.buf = nil
	if err != nil {
		c.fail(err)
	}
	return err
}

// Err returns the first error the collector latched.
func (c *Collector) Err() error {
	if c == nil {
		return nil
	}
	return c.err
}

func (c *Collector) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}
