//go:build poison

package poison

// Enabled reports whether this build poisons recycled buffers.
const Enabled = true
