package system

// Deliberate drive-loop fault injection for the metamorphic verification
// harness, mirroring internal/cache's and internal/coherence's fault
// machinery.
//
// The diff-skip-replay check (internal/metamorph) proves it can catch a
// wrong wake bound by planting one here: FaultLateWake wakes every sleeping
// CPU one cycle after its quiet tick's bound, so the CPU misses the event
// the bound named and the run's reports diverge from a per-cycle replay.
//
// Injection is process-global but sampled per System at construction, so
// concurrently running systems stay race-free. Arm before building a
// model; never mid-run.

// Fault selects an injected drive-loop bug.
type Fault uint8

const (
	// FaultNone disables injection (the default).
	FaultNone Fault = iota
	// FaultLateWake adds one cycle to every wake bound a quiet tick
	// returns.
	FaultLateWake
)

// String names the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultLateWake:
		return "latewake"
	}
	return "fault?"
}

// FaultByName resolves a -inject flag value ("" and "none" mean no fault).
func FaultByName(name string) (Fault, bool) {
	switch name {
	case "", "none":
		return FaultNone, true
	case "latewake":
		return FaultLateWake, true
	}
	return FaultNone, false
}

// injected is the process-global fault, sampled by New.
var injected Fault

// InjectFault arms a fault for every System built afterwards. Call with
// FaultNone to disarm. Not safe to call while simulations run.
func InjectFault(f Fault) { injected = f }

// InjectedFault returns the currently armed fault.
func InjectedFault() Fault { return injected }
