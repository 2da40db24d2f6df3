package npb

import (
	"fmt"

	"vscale/internal/guest"
	"vscale/internal/sim"
	"vscale/internal/workload"
)

// AdaptiveLaunch is the paper's §7 future-work direction made concrete:
// an OpenMP-style runtime that uses vScale's interface to size each
// parallel region's team to the VM's *current* active vCPU count,
// instead of the online count at program start.
//
// Per region, the master reads the active-vCPU count, wakes that many
// workers, splits the region's work evenly among them, and joins them on
// a region-sized spin barrier. Workers outside the team sleep, so a
// shrunken VM never hosts more spinners than vCPUs — the packed-team
// spin waste of a fixed team disappears.
//
// The total work per region equals the fixed-team equivalent
// (maxThreads × SegMean), so execution times are directly comparable
// with Launch.
func AdaptiveLaunch(k *guest.Kernel, p Profile, maxThreads int, spinBudget sim.Time) *workload.App {
	app := workload.NewApp(k, "npb-adaptive/"+p.Name)
	if maxThreads < 1 {
		maxThreads = 1
	}
	regions := p.Iterations * p.BarriersPerIter
	if regions < 1 {
		regions = 1
	}
	regionWork := sim.Time(float64(p.SegMean) * float64(maxThreads))

	type token struct {
		seg  sim.Time
		join *guest.Barrier
		stop bool
	}
	// One mailbox per worker (threads 1..maxThreads-1).
	boxes := make([]*guest.WaitQueue, maxThreads)
	for i := 1; i < maxThreads; i++ {
		boxes[i] = k.NewWaitQueue(0)
	}

	// Master: per region, size the team from the active vCPU count and
	// fan the work out.
	fanOut := func(t *guest.Thread, r int, acts []guest.Action) []guest.Action {
		m := k.ActiveVCPUs()
		if m < 1 {
			m = 1
		}
		if m > maxThreads {
			m = maxThreads
		}
		join := k.NewBarrier(m, spinBudget)
		seg := regionWork / sim.Time(m)
		for w := 1; w < m; w++ {
			box, tok := boxes[w], token{seg: seg, join: join}
			acts = append(acts, guest.Enqueue(box, tok))
		}
		acts = append(acts,
			guest.Compute(seg),
			guest.BarrierWait(join),
		)
		if r == regions-1 {
			// Final region: release every worker for exit.
			for w := 1; w < maxThreads; w++ {
				acts = append(acts, guest.Enqueue(boxes[w], token{stop: true}))
			}
		}
		return acts
	}
	app.Go(p.Name+".master", &workload.RandLoop{
		N:    regions,
		Body: func(_ int, ops *workload.Ops) { ops.Dynamic(fanOut) },
	})

	// Workers: sleep until handed a region token, run the share, join.
	run := func(t *guest.Thread, _ int, acts []guest.Action) []guest.Action {
		tok := t.Mailbox.(token)
		if tok.stop {
			return append(acts, guest.Exit())
		}
		return append(acts,
			guest.Compute(tok.seg),
			guest.BarrierWait(tok.join),
		)
	}
	for w := 1; w < maxThreads; w++ {
		box := boxes[w]
		app.Go(fmt.Sprintf("%s.w%d", p.Name, w), &workload.RandLoop{
			Forever: true,
			Body: func(_ int, ops *workload.Ops) {
				ops.Do(guest.Dequeue(box))
				ops.Dynamic(run)
			},
		})
	}
	return app
}
