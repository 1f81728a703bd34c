// Package obs is a fixture stub of the real observability registry:
// just enough surface for the metricname analyzer to resolve
// registration calls and Sample literals.
package obs

type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

type Sample struct {
	Name  string
	Kind  Kind
	Value float64
}

type Counter struct{ v int64 }

type Gauge struct{ v float64 }

type Histogram struct{ sum float64 }

type Registry struct{}

func (r *Registry) Counter(name, help string) *Counter                      { return &Counter{} }
func (r *Registry) CounterVec(name, help string, labels ...string) *Counter { return &Counter{} }
func (r *Registry) Gauge(name, help string) *Gauge                          { return &Gauge{} }
func (r *Registry) GaugeFunc(name, help string, fn func() float64)          {}
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return &Histogram{}
}
func (r *Registry) HistogramVec(name, help string, labels ...string) *Histogram {
	return &Histogram{}
}
