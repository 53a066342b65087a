package ml

// window is the forest's incremental training buffer: a fixed-capacity
// ring over the most recent samples. Absorbing a batch is O(batch) —
// the oldest rows are overwritten in place — where the previous
// Dataset-based window re-copied all retained rows every time it
// overflowed. Rows are stored by reference, never copied.
//
// Logical order is oldest-first: logical index i maps to the backing
// slot phys(i), and once the ring is full head points at the oldest
// sample. Training code draws logical indices (so the recency bias and
// the RNG stream are independent of where the ring happens to wrap) and
// translates them with phys.
type window struct {
	x    [][]float64
	y    []float64
	max  int // capacity; push overwrites the oldest beyond this
	head int // backing index of the oldest sample once full
}

// reset empties the window and sets its capacity.
func (w *window) reset(max int) {
	w.x = w.x[:0]
	w.y = w.y[:0]
	w.max = max
	w.head = 0
}

// push appends one sample, evicting the oldest when full.
func (w *window) push(xi []float64, yi float64) {
	if len(w.y) < w.max {
		w.x = append(w.x, xi)
		w.y = append(w.y, yi)
		return
	}
	w.x[w.head] = xi
	w.y[w.head] = yi
	w.head++
	if w.head == w.max {
		w.head = 0
	}
}

// Len returns the number of retained samples.
func (w *window) Len() int { return len(w.y) }

// phys maps a logical (oldest-first) index to its backing slot.
func (w *window) phys(i int) int {
	p := w.head + i
	if p >= len(w.y) {
		p -= len(w.y)
	}
	return p
}

// copyTo writes the samples into x and y (each Len() long) in logical
// order. The rows are shared, not copied.
func (w *window) copyTo(x [][]float64, y []float64) {
	for i := range y {
		p := w.phys(i)
		x[i] = w.x[p]
		y[i] = w.y[p]
	}
}
