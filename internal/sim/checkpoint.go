package sim

import (
	"fmt"
	"sort"
)

// This file is the engine half of the deterministic checkpoint/restore
// layer (docs/checkpoint.md). The engine itself cannot serialize pending
// events — their bodies are closures — so checkpointing is split:
//
//   - the engine exports its semantic scalars (clock, FIFO sequence
//     counter, PRNG state, drop accounting) via CheckpointState, and
//   - the caller captures every still-pending event as a *descriptor*
//     (label + deadline + FIFO order, via PendingEvents) that it knows
//     how to re-arm through the owning component (Timer.ResetAt).
//
// Restore then runs in the opposite order: rebuild components, purge
// whatever bootstrap events they scheduled (PurgeAll), re-arm the
// captured descriptors in their original FIFO order, and finally
// overwrite the scalars with RestoreState. Because re-armed events take
// ascending fresh sequence numbers and RestoreState only ever moves the
// engine's counter forward, the relative firing order among re-armed
// events — and between them and anything scheduled after restore — is
// identical to the straight-through run.

// RandState is the exported xoshiro256** state of a Rand.
type RandState [4]uint64

// State returns the generator's internal state. Restoring it with
// SetState resumes the exact variate stream.
func (r *Rand) State() RandState { return r.s }

// SetState overwrites the generator's internal state. It rejects the
// all-zero state, which xoshiro cannot escape.
func (r *Rand) SetState(st RandState) error {
	if st[0]|st[1]|st[2]|st[3] == 0 {
		return fmt.Errorf("sim: all-zero xoshiro state")
	}
	r.s = st
	return nil
}

// EngineState is the semantic scalar state of an Engine: everything the
// engine owns that is not a pending event body.
type EngineState struct {
	Now          Time      `json:"now"`
	Seq          uint64    `json:"seq"`
	Rand         RandState `json:"rand"`
	Processed    uint64    `json:"processed"`
	Scheduled    uint64    `json:"scheduled"`
	Cancelled    uint64    `json:"cancelled"`
	LastCancelAt Time      `json:"last_cancel_at"`
}

// CheckpointState captures the engine's semantic scalars. Pending events
// are not included; capture them with PendingEvents.
func (e *Engine) CheckpointState() EngineState {
	return EngineState{
		Now:          e.now,
		Seq:          e.seq,
		Rand:         e.rand.State(),
		Processed:    e.Processed,
		Scheduled:    e.Scheduled,
		Cancelled:    e.Cancelled,
		LastCancelAt: e.LastCancelAt,
	}
}

// RestoreState overwrites the engine's semantic scalars from a prior
// CheckpointState. The clock only moves forward: restoring to a time
// before an already-queued event would corrupt the heap invariant, so
// the caller must re-arm pending events at-or-after st.Now first (their
// deadlines were >= st.Now when captured). The sequence counter is
// clamped to max(current, captured) so events scheduled after restore
// order after both the re-armed descriptors and everything the captured
// run had already numbered.
func (e *Engine) RestoreState(st EngineState) error {
	if st.Now < e.now {
		return fmt.Errorf("sim: restore to %v would move the clock backwards (now %v)", st.Now, e.now)
	}
	if x, _ := e.next(); x != nil && x.when < st.Now {
		return fmt.Errorf("sim: pending event %q at %v predates restore time %v", x.ev.label, x.when, st.Now)
	}
	if err := e.rand.SetState(st.Rand); err != nil {
		return err
	}
	e.now = st.Now
	if st.Seq > e.seq {
		e.seq = st.Seq
	}
	e.Processed = st.Processed
	e.Scheduled = st.Scheduled
	e.Cancelled = st.Cancelled
	e.LastCancelAt = st.LastCancelAt
	return nil
}

// PendingEvent describes one still-pending event:
// its deadline, its FIFO sequence number, and the debug label it was
// scheduled under. Descriptors are how checkpoints record the event
// queue — the owning component re-arms the matching event on restore.
type PendingEvent struct {
	When  Time   `json:"when"`
	Seq   uint64 `json:"seq"`
	Label string `json:"label"`
}

// PendingEvents returns descriptors for every pending event in firing
// order (when, then FIFO sequence), one per unfired Series element. It
// reads each event's own key, not its slot's.
func (e *Engine) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, 0, e.Pending())
	for _, x := range e.queue.a {
		if s := x.ev.series; s != nil {
			for i := s.next; i < len(s.whens); i++ {
				out = append(out, PendingEvent{When: s.whens[i], Seq: s.seq0 + uint64(i), Label: x.ev.label})
			}
			continue
		}
		out = append(out, PendingEvent{When: x.ev.when, Seq: x.ev.seq, Label: x.ev.label})
	}
	l := &e.lane
	for j := l.head; j != l.tail; j++ {
		if x := l.buf[j&uint(len(l.buf)-1)]; x.ev != nil {
			out = append(out, PendingEvent{When: x.when, Seq: x.seq, Label: x.ev.label})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].When != out[j].When {
			return out[i].When < out[j].When
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// PurgeAll discards every queued event without firing any of them, and
// returns how many events were dropped (every unfired element of a
// Series counts).
// It exists for restore: a freshly rebuilt component tree schedules
// bootstrap events that the checkpoint's descriptor list supersedes.
// Drop accounting is left untouched; RestoreState overwrites it anyway.
func (e *Engine) PurgeAll() int {
	n := 0
	for len(e.queue.a) > 0 {
		ev := e.queue.popMin()
		if s := ev.series; s != nil {
			n += len(s.whens) - s.next
		} else {
			n++
		}
		e.recycle(ev)
	}
	for l := &e.lane; l.n > 0; n++ {
		ev := l.front().ev
		l.pop()
		ev.index = -1
		e.recycle(ev)
	}
	return n
}
