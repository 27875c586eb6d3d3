package exec

import (
	"encoding/xml"
	"time"
)

// ExecutionStats is the engine's analog of SQL Server's "statistics xml"
// mode (§II-C, §V-A): the executed plan with estimated and actual
// cardinalities per operator, augmented with the estimated and actual
// distinct page count for each requested expression.
type ExecutionStats struct {
	XMLName xml.Name       `xml:"ExecutionStats"`
	Plan    OperatorStats  `xml:"Plan>Operator"`
	DPC     []PageCountXML `xml:"DistinctPageCounts>PageCount,omitempty"`
	Runtime RuntimeStats   `xml:"Runtime"`
}

// OperatorStats is one operator node in the XML plan. OpID, Wall, and
// Calls travel with the snapshot for EXPLAIN ANALYZE but are excluded
// from the XML: ids are an internal alignment key, and wall time is
// nonzero only on traced runs — marshaling it would make the statistics
// document differ between traced and untraced executions of the same
// query, breaking the byte-stability the feedback pipeline relies on.
type OperatorStats struct {
	Label    string          `xml:"label,attr"`
	EstRows  float64         `xml:"estimatedRows,attr"`
	ActRows  int64           `xml:"actualRows,attr"`
	EstDPC   float64         `xml:"estimatedPageCount,attr,omitempty"`
	Children []OperatorStats `xml:"Operator,omitempty"`

	OpID  int32         `xml:"-"`
	Wall  time.Duration `xml:"-"` // inclusive wall time (traced runs only)
	Calls int64         `xml:"-"` // NextBatch invocations (traced runs only)
}

// PageCountXML is one monitored distinct page count.
type PageCountXML struct {
	Table      string `xml:"table,attr"`
	Expression string `xml:"expression,attr"`
	Mechanism  string `xml:"mechanism,attr"`
	Estimated  int64  `xml:"estimated,attr"` // the optimizer's analytical estimate
	Actual     int64  `xml:"actual,attr"`    // the fed-back observation
	Exact      bool   `xml:"exact,attr"`
	Degraded   bool   `xml:"degraded,attr,omitempty"` // monitor quarantined mid-query
	Reason     string `xml:"reason,attr,omitempty"`
}

// RuntimeStats aggregates the run's resource usage.
type RuntimeStats struct {
	SimulatedIO    time.Duration `xml:"simulatedIO,attr"`
	SimulatedCPU   time.Duration `xml:"simulatedCPU,attr"`
	SimulatedTotal time.Duration `xml:"simulatedTotal,attr"`
	PhysicalReads  int64         `xml:"physicalReads,attr"`
	RandomReads    int64         `xml:"randomReads,attr"`
	LogicalReads   int64         `xml:"logicalReads,attr"`
	RowsTouched    int64         `xml:"rowsTouched,attr"`
	// RowsDecoded counts the rows table scans materialized as values: the
	// scan predicate's survivors (those a pushed-down hash-join probe
	// matches, when there is one). A rejected row is never decoded, and
	// monitors judge the cells of their sampled pages in place. Scans charge
	// RowsTouched for every cell they judge on the page bytes, so the gap
	// between the two is the decoding late materialization avoided.
	RowsDecoded int64 `xml:"rowsDecoded,attr"`
	// ValuesDecoded counts the column values those rows materialized: scans
	// decode only the columns something above them reads, and leave the
	// rest zero-valued.
	ValuesDecoded int64 `xml:"valuesDecoded,attr"`
	// QuarantinedMonitors counts DPC monitors disabled mid-query by the
	// quarantine guard; their results carry no observation.
	QuarantinedMonitors int `xml:"quarantinedMonitors,attr,omitempty"`
	// Parallelism is the effective intra-query parallel degree (0 = serial).
	Parallelism int `xml:"parallelism,attr,omitempty"`
	// QueueWait is the time the query spent in the admission queue before
	// starting; QueueDepth is how many queries were already queued when it
	// arrived.
	QueueWait  time.Duration `xml:"queueWait,attr,omitempty"`
	QueueDepth int           `xml:"queueDepth,attr,omitempty"`
	// ReadRetries counts transient storage faults absorbed by the backoff
	// policy during this query.
	ReadRetries int64 `xml:"readRetries,attr,omitempty"`
	// PoolWaits / PoolWaitTime report bounded waits on exhausted buffer-pool
	// shards (graceful degradation instead of instant exhaustion errors).
	PoolWaits    int64         `xml:"poolWaits,attr,omitempty"`
	PoolWaitTime time.Duration `xml:"poolWaitTime,attr,omitempty"`
	// MemPeakBytes is the high-water mark of bytes materialized by the
	// query's allocating operators, when a memory tracker was attached.
	MemPeakBytes int64 `xml:"memPeakBytes,attr,omitempty"`
	// PlanCacheHit reports whether the plan was instantiated from the
	// engine's feedback-epoch plan cache instead of being optimized anew.
	PlanCacheHit bool `xml:"planCacheHit,attr,omitempty"`
	// BatchesProcessed counts the non-empty batches operators handed their
	// parents and the result sink. It is an execution-shape diagnostic: no
	// simulated cost depends on it.
	BatchesProcessed int64 `xml:"batchesProcessed,attr,omitempty"`
}

// snapshotOpStats converts the live OpStats tree into the XML form.
func snapshotOpStats(s *OpStats) OperatorStats {
	out := OperatorStats{
		Label:   s.Label,
		EstRows: s.EstRows,
		ActRows: s.ActRows,
		EstDPC:  s.EstDPC,
		OpID:    s.OpID,
		Wall:    s.Wall,
		Calls:   s.Calls,
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, snapshotOpStats(c))
	}
	return out
}

// StatsSnapshot builds the XML-ready plan statistics for the execution.
func (e *Execution) StatsSnapshot() OperatorStats {
	return snapshotOpStats(e.Root.Stats())
}

// MarshalStats renders the full ExecutionStats document as indented XML.
func MarshalStats(s ExecutionStats) (string, error) {
	b, err := xml.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}
