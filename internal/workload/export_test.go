package workload

// ColdBuilds empties the program New shares, so that the next New builds
// afresh, and returns a function that reports how many programs New has
// built since.
func ColdBuilds() func() int {
	last.mu.Lock()
	defer last.mu.Unlock()
	last.e = nil
	start := last.builds
	return func() int {
		last.mu.Lock()
		defer last.mu.Unlock()
		return last.builds - start
	}
}
