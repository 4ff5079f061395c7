package sqlish

// Statement is the interface implemented by all parsed commands.
type Statement interface{ stmt() }

// VerifyStmt is `VERIFY ATTACHMENT <vid>` — accept a pending task.
type VerifyStmt struct {
	VID int64
}

// RejectStmt is `REJECT ATTACHMENT <vid>` — reject a pending task.
type RejectStmt struct {
	VID int64
}

// ListPendingStmt is `LIST PENDING [BY PRIORITY] [LIMIT n]`.
type ListPendingStmt struct {
	// Limit caps the listing; 0 means no limit.
	Limit int
	// ByPriority orders by descending confidence instead of VID.
	ByPriority bool
}

// AnnotateStmt is `ANNOTATE <table> '<pk>' AS '<id>' BODY '<text>'`: insert
// a new annotation attached to one tuple.
type AnnotateStmt struct {
	Table string
	PK    string
	ID    string
	Body  string
}

// DiscoverStmt is `DISCOVER '<annotation-id>' [TIMEOUT <ms>] [MAX <n>]
// [PARALLEL <workers>] [CACHE ON|OFF|<bytes>] [TRACE ON|OFF] [TOPK <k>]`:
// run Stages 1–2 and report the candidates without routing them. TIMEOUT
// bounds the run's wall clock in milliseconds; MAX keeps only the n strongest candidates; PARALLEL
// sizes the worker pool for this statement (1 = sequential). Zero means no
// bound / the engine's configured parallelism. CACHE ON/OFF overrides the
// engine's result caching for this one run; CACHE <bytes> resizes the
// engine's discovery-cache budget before the run. TRACE ON records a
// request-scoped span tree and appends it to the result (observe-only —
// candidates are identical either way). TOPK <k> keeps only the
// strongest k attachments of the full ranking, cut before MAX.
type DiscoverStmt struct {
	ID            string
	TimeoutMillis int64
	MaxCandidates int
	Parallel      int
	// Cache is "", "on", or "off" — the per-request cache override.
	Cache string
	// CacheBytes, when positive, resizes the engine's cache budget.
	CacheBytes int64
	// Trace records a span tree for this one run (`TRACE ON`).
	Trace bool
	// TopK, when positive, keeps the strongest k attachments (`TOPK <k>`).
	TopK int
}

// ProcessStmt is `PROCESS '<annotation-id>' [TIMEOUT <ms>] [MAX <n>]
// [PARALLEL <workers>] [CACHE ON|OFF|<bytes>] [TRACE ON|OFF] [TOPK <k>]`:
// run the full pipeline
// including verification routing, under the same optional governors as
// DiscoverStmt.
type ProcessStmt struct {
	ID            string
	TimeoutMillis int64
	MaxCandidates int
	Parallel      int
	Cache         string
	CacheBytes    int64
	Trace         bool
	TopK          int
}

// Condition is one `col = value` conjunct of a WHERE clause.
type Condition struct {
	Column string
	// Value holds the literal text; IsNumber tells whether it was a
	// numeric literal (the executor coerces it to the column type).
	Value    string
	IsNumber bool
}

// SelectStmt is the propagation-aware query:
// `SELECT cols FROM table [WHERE ...] [WITH ANNOTATIONS]`.
type SelectStmt struct {
	// Columns projected; empty means `*`.
	Columns []string
	Table   string
	Where   []Condition
	// WithAnnotations requests annotation propagation over the results.
	WithAnnotations bool
}

func (*VerifyStmt) stmt()      {}
func (*RejectStmt) stmt()      {}
func (*ListPendingStmt) stmt() {}
func (*AnnotateStmt) stmt()    {}
func (*DiscoverStmt) stmt()    {}
func (*ProcessStmt) stmt()     {}
func (*SelectStmt) stmt()      {}
