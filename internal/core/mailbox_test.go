package core

import (
	"math/rand"
	"sync"
	"testing"
)

func TestMailboxPushDrain(t *testing.T) {
	m := newMailbox(3)
	if m.drain() != nil {
		t.Fatal("empty drain should be nil")
	}
	m.push(0, []Event{{To: 1}, {To: 2}})
	m.push(0, []Event{{To: 3}})
	got := m.drain()
	if len(got) != 3 || got[0].To != 1 || got[2].To != 3 {
		t.Fatalf("drain = %+v", got)
	}
	m.recycle(got)
	if m.drain() != nil {
		t.Fatal("second drain should be nil")
	}
}

func TestMailboxPushEmptyBatch(t *testing.T) {
	m := newMailbox(2)
	m.push(0, nil)
	select {
	case <-m.wake:
		t.Fatal("empty push should not wake")
	default:
	}
}

// TestMailboxMultiSenderFIFOStress is the pairwise-FIFO stress test: every
// sender owns its lane (the SPSC contract) and pushes randomized batch
// sizes concurrently with the consumer draining; per-sender delivery order
// must be exactly push order. Run under -race this also exercises the
// publish/consume memory ordering of the chunk queues.
func TestMailboxMultiSenderFIFOStress(t *testing.T) {
	const senders, per = 6, 20000
	m := newMailbox(senders + 1)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			i := 0
			for i < per {
				n := 1 + rng.Intn(97)
				if i+n > per {
					n = per - i
				}
				batch := make([]Event, n)
				for j := range batch {
					// From encodes sender, Val the within-sender sequence.
					batch[j] = Event{From: 1 << uint(s), Val: uint64(i + j)}
				}
				m.push(s, batch)
				i += n
			}
		}(s)
	}
	// The external lane has its own (serialized) producer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			m.pushExternal(Event{From: 1 << senders, Val: uint64(i)})
		}
	}()

	next := make([]uint64, senders+1)
	total := 0
	for total < (senders+1)*per {
		batch := m.drain()
		if batch == nil {
			m.wait(nil)
			continue
		}
		for _, ev := range batch {
			var lane int
			for ev.From>>uint(lane) != 1 {
				lane++
			}
			if ev.Val != next[lane] {
				t.Fatalf("sender %d out of order: got %d want %d", lane, ev.Val, next[lane])
			}
			next[lane]++
			total++
		}
		m.recycle(batch)
	}
	wg.Wait()
	if got := m.drain(); got != nil {
		t.Fatalf("events left after full delivery: %d", len(got))
	}
}

// TestMailboxRecycleReusesStorage pins the steady-state allocation
// behaviour: once warmed, a push/drain/recycle cycle must not allocate —
// chunks recycle through each lane's free slot and the drain buffer
// recycles through scratch. (Chunk allocation is amortized: the batch here
// is sized so cycles cross chunk boundaries and still reuse storage.)
func TestMailboxRecycleReusesStorage(t *testing.T) {
	m := newMailbox(2)
	batch := make([]Event, 64)
	cycle := func() {
		m.push(1, batch)
		got := m.drain()
		if got == nil {
			t.Fatal("drain returned nil after push")
		}
		m.recycle(got)
	}
	// Warm past the first chunk boundary: the first cycles allocate the
	// long-lived buffers (drain scratch, second chunk of the ring).
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 0 {
		t.Fatalf("steady-state push/drain/recycle allocates %.1f times per cycle", allocs)
	}
}

// TestMailboxLaneChunkBoundary crosses several chunk boundaries with one
// oversized batch and checks nothing is lost or reordered.
func TestMailboxLaneChunkBoundary(t *testing.T) {
	m := newMailbox(1)
	const n = laneChunkSize*3 + 17
	batch := make([]Event, n)
	for i := range batch {
		batch[i].Val = uint64(i)
	}
	m.push(0, batch[:laneChunkSize-1])
	m.push(0, batch[laneChunkSize-1:])
	got := m.drain()
	if len(got) != n {
		t.Fatalf("drained %d events, want %d", len(got), n)
	}
	for i := range got {
		if got[i].Val != uint64(i) {
			t.Fatalf("event %d carries %d", i, got[i].Val)
		}
	}
}

func TestMailboxExternalLane(t *testing.T) {
	m := newMailbox(2) // one rank lane + the external lane
	m.pushExternal(Event{To: 9})
	m.push(0, []Event{{To: 1}})
	got := m.drain()
	if len(got) != 2 {
		t.Fatalf("drained %d events, want 2", len(got))
	}
	seen := map[uint64]bool{uint64(got[0].To): true, uint64(got[1].To): true}
	if !seen[9] || !seen[1] {
		t.Fatalf("drained %+v", got)
	}
}

func TestMailboxHighWater(t *testing.T) {
	m := newMailbox(2)
	if m.highWater() != 0 {
		t.Fatalf("fresh mailbox hwm = %d", m.highWater())
	}
	m.push(0, make([]Event, 3))
	m.push(1, make([]Event, 2)) // depth 5
	m.recycle(m.drain())
	m.push(0, make([]Event, 4)) // depth 4 < 5: hwm unchanged
	if m.highWater() != 5 {
		t.Fatalf("hwm = %d, want 5", m.highWater())
	}
}

func TestMailboxWakeOnPush(t *testing.T) {
	m := newMailbox(1)
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		m.wait(done)
		close(finished)
	}()
	m.push(0, []Event{{To: 1}})
	<-finished
}

func TestMailboxWakeOnDone(t *testing.T) {
	m := newMailbox(1)
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		m.wait(done)
		close(finished)
	}()
	close(done)
	<-finished
}

func TestMailboxPoke(t *testing.T) {
	m := newMailbox(1)
	m.poke()
	m.poke() // second poke must not block
	m.wait(nil)
	if got := m.drain(); got != nil {
		t.Fatalf("poke delivered events: %+v", got)
	}
}

func TestEventKindString(t *testing.T) {
	want := map[Kind]string{
		KindAdd: "ADD", KindReverseAdd: "REVERSE_ADD", KindUpdate: "UPDATE",
		KindInit: "INIT", KindDelete: "DELETE", KindReverseDelete: "REVERSE_DELETE",
		KindSignal: "SIGNAL", Kind(99): "UNKNOWN",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q want %q", k, k.String(), s)
		}
	}
}

// TestDrainedBuffersRelease covers reuseDrained on both drain buffers: a
// flood-sized drain followed by small ones releases the mailbox's drain
// buffer and the rank's self ring, and small steady drains keep theirs.
func TestDrainedBuffersRelease(t *testing.T) {
	flood := make([]Event, 4*drainKeepFloor)
	small := make([]Event, 16)

	m := newMailbox(2)
	m.push(0, flood)
	m.recycle(m.drain())
	if got := cap(m.scratch); got < len(flood) {
		t.Fatalf("flood drain kept a %d-event buffer, want >= %d", got, len(flood))
	}
	m.push(0, small)
	m.recycle(m.drain())
	if got := cap(m.scratch); got >= len(flood) {
		t.Fatalf("a small drain after the flood kept the %d-event buffer", got)
	}
	m.push(0, small)
	kept := m.drain()
	m.recycle(kept)
	m.push(0, small)
	if again := m.drain(); &again[:1][0] != &kept[:1][0] {
		t.Fatal("a small buffer was not reused")
	}

	e := New(Options{Ranks: 1, Undirected: true}, ssspStub{})
	r := e.ranks[0]
	r.self = append(r.self, flood...)
	r.drainSelf()
	if got := cap(r.self); got < len(flood) {
		t.Fatalf("flood drain kept a %d-event self ring, want >= %d", got, len(flood))
	}
	r.self = append(r.self, small...)
	r.drainSelf()
	if r.self != nil {
		t.Fatalf("a small drain after the flood kept a %d-event self ring", cap(r.self))
	}
}
