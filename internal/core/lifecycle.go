package core

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// The engine lifecycle (the control plane the paper's batch-job prototype
// lacked): Idle → Running ⇄ Paused → Stopped.
//
//	Idle     construction until Start. InitVertex/Signal queue; Collect,
//	         Topology, and WriteCheckpoint read the (empty or
//	         checkpoint-loaded) state directly.
//	Running  ranks ingest streams and process cascades asynchronously.
//	Paused   ingestion is halted and every in-flight cascade has drained to
//	         a quiescent point; ranks are parked at an event boundary.
//	         Collect, Topology, and WriteCheckpoint are legal and observe a
//	         consistent global state; queries and snapshots keep working.
//	Resume   re-opens the gate: parked ranks continue pulling their streams
//	         and externally-emitted events held during the pause are
//	         delivered.
//	Stopped  terminal: reached when every stream is exhausted and cascades
//	         have converged (natural termination), or via Stop, which drains
//	         in-flight work to the same quiescent point and then releases
//	         every rank goroutine.
//
// Pause/Resume/Stop are serialized by lifeMu and idempotent: pausing a
// paused engine, resuming a running one, or stopping a stopped one are
// no-ops.

// State is the engine's lifecycle phase.
type State int32

// Lifecycle states (Idle → Running ⇄ Paused → Stopped).
const (
	StateIdle State = iota
	StateRunning
	StatePaused
	StateStopped
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// MarshalText renders the state name, so JSON consumers of EngineStats
// (e.g. the expvar endpoint) see "running" rather than a bare integer.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name, so EngineStats JSON (the /stats and
// expvar endpoints) round-trips back into the typed struct.
func (s *State) UnmarshalText(text []byte) error {
	for _, c := range []State{StateIdle, StateRunning, StatePaused, StateStopped} {
		if string(text) == c.String() {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("core: unknown state %q", text)
}

// ErrStopped is returned by lifecycle transitions attempted on an engine
// that has already terminated.
var ErrStopped = errors.New("core: engine is stopped")

// State returns the engine's current lifecycle state.
func (e *Engine) State() State { return State(e.state.Load()) }

// mayInspect reports whether the engine's global state can be read
// directly: no rank goroutine is mutating it (never started, terminated,
// or parked at the pause barrier).
func (e *Engine) mayInspect() bool {
	// A sim-driven engine has no rank goroutines at all: the single driving
	// goroutine may read between any two micro-steps.
	return !e.started.Load() || e.finished.Load() || e.State() == StatePaused ||
		e.simManual
}

// ingestHalted reports whether ranks must stop pulling topology events
// from their streams (a pause or stop is in progress).
func (e *Engine) ingestHalted() bool {
	return e.pauseReq.Load() || e.stopReq.Load()
}

// Pause halts ingestion, drains every in-flight cascade to a quiescent
// point, and parks all rank goroutines at an event boundary. When Pause
// returns nil the engine is in StatePaused: Collect, Topology, and
// WriteCheckpoint are legal and observe a consistent global state equal to
// "all ingested events fully processed, nothing else". Queries and
// snapshots keep working against the parked state.
//
// External events (InitVertex, Signal) arriving while the engine is paused
// are held back and delivered on Resume; topology events stay buffered in
// their streams. Pausing a paused engine is a no-op; pausing an engine
// that terminated first returns ErrStopped.
func (e *Engine) Pause() error {
	if e.remote {
		// A pause is a globally consistent cut; the control protocol for
		// that across processes does not exist yet. Collect still works on
		// the local shard after termination.
		return errors.New("core: Pause is not supported over a multi-process transport")
	}
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	switch e.State() {
	case StatePaused:
		return nil
	case StateIdle:
		return errors.New("core: Pause before Start")
	case StateStopped:
		return ErrStopped
	}
	e.newGate()
	// Fence external emissions: any emit that already holds extMu finishes
	// counting its event first (so a rank cannot park over it);
	// everything after the flag is deferred until Resume.
	e.extMu.Lock()
	e.pauseReq.Store(true)
	e.extMu.Unlock()
	e.wakeAll()
	e.awaitQuiesce(func() bool {
		return e.parked.Load() == int32(len(e.ranks)) || e.finished.Load()
	})
	if e.finished.Load() {
		// Termination beat the pause flag (finishOnce had already fired).
		e.extMu.Lock()
		e.pauseReq.Store(false)
		e.deferred = nil
		e.extMu.Unlock()
		e.openGate()
		return ErrStopped
	}
	e.state.Store(int32(StatePaused))
	return nil
}

// Resume re-opens a paused engine: parked ranks continue pulling their
// streams, and external events held during the pause are delivered in
// order. Resuming a running engine is a no-op; resuming a stopped one
// returns ErrStopped.
func (e *Engine) Resume() error {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	switch e.State() {
	case StateRunning:
		return nil
	case StateIdle:
		return errors.New("core: Resume before Start")
	case StateStopped:
		return ErrStopped
	}
	e.extMu.Lock()
	deferred := e.deferred
	e.deferred = nil
	e.pauseReq.Store(false)
	e.extMu.Unlock()
	e.state.Store(int32(StateRunning))
	for i := range deferred {
		e.emitExternal(deferred[i])
	}
	e.openGate()
	e.wakeAll()
	return nil
}

// Stop halts ingestion, drains every in-flight cascade to a consistent
// quiescent point, terminates all rank goroutines, and closes the engine.
// It works from any state: on a running engine it is the graceful-shutdown
// path for live streams that never close; on a paused engine it releases
// the parked ranks straight into termination; on an idle (never started)
// engine it marks the engine stopped so Wait returns immediately.
//
// Stop returns nil once the engine has fully terminated (Wait would not
// block), or ctx.Err() if the context expires first — in which case the
// shutdown continues in the background and a later Stop/Wait observes it.
// Stopping a stopped engine is an idempotent wait for termination.
// External events held back by a pause are discarded on Stop.
func (e *Engine) Stop(ctx context.Context) error {
	e.lifeMu.Lock()
	switch e.State() {
	case StateIdle:
		e.stopReq.Store(true)
		e.finish()
		e.lifeMu.Unlock()
		e.signalQuiesce()
		return nil
	case StatePaused:
		e.stopReq.Store(true)
		e.extMu.Lock()
		e.pauseReq.Store(false)
		e.deferred = nil
		e.extMu.Unlock()
		e.openGate()
	default: // Running or already Stopped
		e.stopReq.Store(true)
	}
	e.wakeAll()
	e.lifeMu.Unlock()
	select {
	case <-e.done:
		e.wg.Wait() // every rank goroutine has been released
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WaitDrained blocks until at least pushed() topology events have been
// ingested from streams and the engine is quiescent — the moment every
// pushed event and all of its recursive cascades are fully processed. It
// is the condition-signalled replacement for busy-wait draining: waiters
// park on a condition variable and are woken by the rank whose idle sweep
// finds nothing pending. It returns early if the engine terminates.
//
// pushed is re-evaluated on every wakeup, so it may track a moving target
// (e.g. a live stream's Pushed counter). On a paused engine WaitDrained
// blocks until a Resume lets the remaining events drain.
func (e *Engine) WaitDrained(pushed func() uint64) {
	e.awaitQuiesce(func() bool {
		if e.finished.Load() {
			return true
		}
		return e.Ingested() >= pushed() && e.Quiescent()
	})
}

// awaitQuiesce parks until pred holds. pred is evaluated under qMu and
// must be fast; every potential-quiescence transition (an idle sweep that
// finds nothing pending, rank parking, termination) broadcasts qCond.
func (e *Engine) awaitQuiesce(pred func() bool) {
	e.qMu.Lock()
	defer e.qMu.Unlock()
	for !pred() {
		e.qCond.Wait()
	}
}

// signalQuiesce wakes awaitQuiesce waiters after a state transition that
// may have satisfied their predicate.
func (e *Engine) signalQuiesce() {
	e.qMu.Lock()
	e.qCond.Broadcast()
	e.qMu.Unlock()
}

// newGate arms the resume gate parked ranks will block on.
func (e *Engine) newGate() {
	e.gateMu.Lock()
	e.resumeCh = make(chan struct{})
	e.gateMu.Unlock()
}

// openGate releases every rank parked on the current gate.
func (e *Engine) openGate() {
	e.gateMu.Lock()
	if e.resumeCh != nil {
		close(e.resumeCh)
		e.resumeCh = nil
	}
	e.gateMu.Unlock()
}

// resumeGate returns the current gate (nil — blocking forever in a select
// — if none is armed; parked ranks are then released by wakeAll pokes).
func (e *Engine) resumeGate() <-chan struct{} {
	e.gateMu.Lock()
	ch := e.resumeCh
	e.gateMu.Unlock()
	return ch
}

// park blocks the rank at the pause barrier. The rank only parks when the
// engine is globally quiescent, so the values it stops over are a
// consistent cut. While parked it still serves the control plane — local
// queries and snapshot contributions — on mailbox pokes, but processes no
// events. External emissions are fenced into the deferred queue; the one
// event source the fence misses is a stream pull that passed ingestHalted
// just before the flag, and a poke that finds the engine no longer
// quiescent un-parks the rank to process it (it parks again once the
// engine is quiescent).
func (r *rank) park() {
	e := r.eng
	gate := e.resumeGate()
	e.parked.Add(1)
	e.signalQuiesce()
	t0 := time.Now()
	defer func() {
		r.counters.parkedNanos.Add(time.Since(t0).Nanoseconds())
		e.parked.Add(-1)
	}()
	for {
		select {
		case <-gate:
			return
		case <-r.inbox.wakeChan():
			r.drainQueries()
			r.snapshotChores()
			// A parked rank still honors epoch boundaries (the publish is
			// a restamp unless events landed since — they can't while
			// parked, so this keeps served epochs fresh at zero copy cost).
			r.publishChores()
			// Parked, the rank would hold a late pull's cascade forever
			// and the pause would never complete.
			if !e.pauseReq.Load() || !e.Quiescent() {
				return
			}
		}
	}
}
