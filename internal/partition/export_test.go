package partition

// KeepsAssignment reports whether f stores an explicit assignment column
// instead of rebuilding it from the member lists.
func KeepsAssignment(f *Frozen) bool { return f.clusterOf != nil }
