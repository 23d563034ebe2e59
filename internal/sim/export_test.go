package sim

// PlannedLane exposes the route lane of sender in protocol pi's route
// table (-1 when the sender routed no exchange) to the package's external
// tests.
func PlannedLane(e *Engine, pi, sender int) int { return int(e.inboxes[pi].planned[sender]) }
