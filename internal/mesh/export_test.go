package mesh

// AvgQueue returns the current average queue estimate.
func (r *RED) AvgQueue() float64 { return r.avg }
