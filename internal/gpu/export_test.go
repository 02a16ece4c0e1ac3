package gpu

// RetainedBytes returns the storage d keeps for reuse.
func (d *Device) RetainedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pool.retained
}
