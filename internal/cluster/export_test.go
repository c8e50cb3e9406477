package cluster

// Collected returns the barrier arrivals host h holds of the episode in
// progress: collecting them, or waiting for its group's release.
func (h *Host) Collected() int { return len(h.got) }
