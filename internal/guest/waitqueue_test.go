package guest

import (
	"testing"

	"vscale/internal/sim"
)

func TestWaitQueueFIFOAndMailbox(t *testing.T) {
	e := newEnv(t, 2, 2, nil, false)
	q := e.k.NewWaitQueue(0)
	var got []int
	e.k.Spawn("consumer", Uthread, &loop{n: 3, body: func(int) []Action {
		return []Action{
			Dequeue(q),
			Call(0, func(th *Thread) { got = append(got, th.Mailbox.(int)) }),
		}
	}}, nil)
	e.k.Spawn("producer", Uthread, &seq{actions: []Action{
		Compute(sim.Millisecond),
		Enqueue(q, 1),
		Compute(sim.Millisecond),
		Enqueue(q, 2),
		Compute(sim.Millisecond),
		Enqueue(q, 3),
	}}, nil)
	e.run(t, sim.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want FIFO [1 2 3]", got)
	}
	if q.Len() != 0 || q.Waiters() != 0 {
		t.Fatalf("queue not drained: len=%d waiters=%d", q.Len(), q.Waiters())
	}
}

func TestWaitQueueBoundedBlocksProducer(t *testing.T) {
	e := newEnv(t, 2, 2, nil, false)
	q := e.k.NewWaitQueue(2)
	prod := e.k.Spawn("producer", Uthread, &loop{n: 6, body: func(i int) []Action {
		return []Action{Enqueue(q, i)}
	}}, nil)
	// Slow consumer starts late.
	e.k.Spawn("consumer", Uthread, &loop{n: 6, body: func(int) []Action {
		return []Action{Sleep(5 * sim.Millisecond), Dequeue(q)}
	}}, nil)
	e.run(t, sim.Second)
	if prod.State() != ThreadExited {
		t.Fatalf("producer state %v", prod.State())
	}
	if prod.Sleeps == 0 {
		t.Fatal("bounded queue never blocked the fast producer")
	}
}

func TestWaitQueuePostFromInterruptContext(t *testing.T) {
	e := newEnv(t, 1, 2, nil, false)
	q := e.k.NewWaitQueue(0)
	dev := e.k.NewDevice("nic", 0, 5*sim.Microsecond)
	served := 0
	e.k.Spawn("server", Uthread, &loop{n: 4, body: func(int) []Action {
		return []Action{
			Dequeue(q),
			Call(0, func(*Thread) { served++ }),
		}
	}}, nil)
	for i := 0; i < 4; i++ {
		i := i
		e.eng.After(sim.Time(i+1)*10*sim.Millisecond, "rx", func() {
			dev.Raise(func(cpuID int) { q.Post(i, cpuID) })
		})
	}
	e.run(t, sim.Second)
	if served != 4 {
		t.Fatalf("served %d of 4 interrupt-posted items", served)
	}
}

func TestWaitQueueBacklogDrop(t *testing.T) {
	e := newEnv(t, 1, 1, nil, false)
	q := e.k.NewWaitQueue(2)
	// No consumer: the third Post must drop.
	if !q.Post(1, 0) || !q.Post(2, 0) {
		t.Fatal("first posts rejected")
	}
	if q.Post(3, 0) {
		t.Fatal("backlog overflow not dropped")
	}
	if q.Drops != 1 || q.Posts != 3 {
		t.Fatalf("drops=%d posts=%d", q.Drops, q.Posts)
	}
}

func TestActCallChargesCost(t *testing.T) {
	e := newEnv(t, 1, 1, nil, false)
	ran := false
	th := e.spawn("c",
		Call(10*sim.Millisecond, func(*Thread) { ran = true }),
	)
	e.run(t, sim.Second)
	if !ran {
		t.Fatal("call did not run")
	}
	if el := th.ExitAt - th.StartAt; el < 10*sim.Millisecond {
		t.Fatalf("elapsed %v, cost not charged", el)
	}
}
