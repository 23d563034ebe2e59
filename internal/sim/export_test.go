package sim

// PlannedLane exposes an inbox's planned-target lane of sender (-1 when
// the sender planned no exchange) to the package's external tests.
func PlannedLane(b *Inbox, sender int) int { return int(b.planned[sender]) }
