package wire

// Pending returns the number of started calls still awaiting a reply, for
// the external tests' no-leftover-entry checks.
func (p *Peer) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}
