package hash

// InternLen reports how many seeds the Tab4 intern map holds, live or
// awaiting their cleanup.
func InternLen() int {
	tab4Intern.mu.Lock()
	defer tab4Intern.mu.Unlock()
	return len(tab4Intern.m)
}
