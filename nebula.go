// Package nebula is a proactive annotation management engine for relational
// databases, reproducing the system described in "Proactive Annotation
// Management in Relational Databases" (SIGMOD 2015).
//
// Conventional annotation managers are passive: they store and propagate
// whatever attachments users create, so databases drift into being
// under-annotated — an annotation's text often references database objects
// it was never attached to. Nebula closes that gap. When an annotation is
// inserted it is analyzed against the NebulaMeta metadata repository;
// signature maps highlight the words likely to be embedded references;
// weighted keyword queries are generated and executed (over the whole
// database, or approximately over the ACG neighborhood of the annotation's
// focal tuples); and the predicted attachments are routed through a
// verification pipeline whose confidence bounds are tuned adaptively to
// minimize expert effort.
//
// # Quick start
//
//	db := nebula.NewDatabase()
//	// ... create tables, insert tuples ...
//	repo := nebula.NewMetaRepository(db, nil)
//	// ... register concepts, patterns, ontologies ...
//	engine, err := nebula.New(db, repo, nebula.DefaultOptions())
//	// insert an annotation attached to one tuple
//	err = engine.AddAnnotation(&nebula.Annotation{ID: "a1", Body: "gene JW00014 ..."},
//	    []nebula.TupleID{geneTuple})
//	// discover its embedded references and route them for verification
//	disc, outcome, err := engine.Process("a1")
//
// The packages under internal/ implement the individual subsystems; this
// package is the supported public surface.
package nebula

import (
	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/discovery"
	"nebula/internal/keyword"
	"nebula/internal/meta"
	"nebula/internal/relational"
	"nebula/internal/sigmap"
	"nebula/internal/trace"
	"nebula/internal/verification"
)

// Re-exported relational substrate types. The engine operates over this
// package's in-memory relational database.
type (
	// Database is the in-memory relational database.
	Database = relational.Database
	// Schema defines a table.
	Schema = relational.Schema
	// Column defines one attribute of a table.
	Column = relational.Column
	// ForeignKey declares an FK–PK relationship.
	ForeignKey = relational.ForeignKey
	// Value is a typed cell value.
	Value = relational.Value
	// Row is a stored tuple.
	Row = relational.Row
	// TupleID identifies a tuple (table + canonical primary key).
	TupleID = relational.TupleID
	// StructuredQuery is a single-table conjunctive selection.
	StructuredQuery = relational.Query
	// Predicate is one comparison of a structured query.
	Predicate = relational.Predicate
)

// Column type and predicate operator constants.
const (
	TypeString = relational.TypeString
	TypeInt    = relational.TypeInt
	TypeFloat  = relational.TypeFloat

	OpEq            = relational.OpEq
	OpContainsToken = relational.OpContainsToken
	OpPrefix        = relational.OpPrefix
)

// Value constructors.
var (
	// String builds a string Value.
	String = relational.String
	// Int builds an int Value.
	Int = relational.Int
	// Float builds a float Value.
	Float = relational.Float
)

// NewDatabase returns an empty relational database.
func NewDatabase() *Database { return relational.NewDatabase() }

// Re-exported annotation model types (§3 of the paper).
type (
	// Annotation is a free-text curation artifact.
	Annotation = annotation.Annotation
	// AnnotationID identifies an annotation.
	AnnotationID = annotation.ID
	// Attachment is an (annotation, tuple) edge.
	Attachment = annotation.Attachment
	// AnnotationStore stores annotations and attachments.
	AnnotationStore = annotation.Store
	// IdealEdges is a reference edge set for quality metrics.
	IdealEdges = annotation.IdealEdges
	// EdgeKey identifies an (annotation, tuple) pair.
	EdgeKey = annotation.EdgeKey
	// QualityMetrics reports F_N / F_P against an ideal edge set.
	QualityMetrics = annotation.QualityMetrics
	// PropagatedRow pairs a query-result tuple with its annotations.
	PropagatedRow = annotation.PropagatedRow
	// PropagatedJoinRow pairs a joined output row with the annotations
	// propagated from both contributing tuples.
	PropagatedJoinRow = annotation.PropagatedJoinRow
)

// Attachment edge types.
const (
	TrueAttachment      = annotation.TrueAttachment
	PredictedAttachment = annotation.PredictedAttachment
)

// Re-exported NebulaMeta types (§5.1).
type (
	// MetaRepository is the NebulaMeta auxiliary metadata store.
	MetaRepository = meta.Repository
	// Concept is a ConceptRefs row.
	Concept = meta.Concept
	// ColumnRef names a table column.
	ColumnRef = meta.ColumnRef
	// Lexicon is the synonym dictionary.
	Lexicon = meta.Lexicon
)

// NewMetaRepository builds a NebulaMeta repository over a database; pass a
// nil lexicon for the built-in default.
func NewMetaRepository(db *Database, lex *Lexicon) *MetaRepository {
	return meta.NewRepository(db, lex)
}

// NewLexicon returns an empty synonym dictionary.
func NewLexicon() *Lexicon { return meta.NewLexicon() }

// DefaultLexicon returns the built-in synonym dictionary.
func DefaultLexicon() *Lexicon { return meta.DefaultLexicon() }

// Re-exported pipeline types.
type (
	// KeywordQuery is a generated keyword search query (Stage 1 output).
	KeywordQuery = keyword.Query
	// Keyword is one keyword of a KeywordQuery.
	Keyword = keyword.Keyword
	// GenerationStats reports Stage 1 phase timings and counts.
	GenerationStats = sigmap.Stats
	// Candidate is a predicted attachment (Stage 2 output).
	Candidate = discovery.Candidate
	// DiscoveryStats reports Stage 2 cost counters.
	DiscoveryStats = discovery.Stats
	// TraceNode is one node of a request-scoped trace tree (see
	// Options.Trace); Discovery.Trace is its root.
	TraceNode = trace.Node
	// SpamError is the concrete ErrSpamAnnotation error, carrying the
	// candidate and database counts quarantine tooling needs.
	SpamError = discovery.SpamError
	// ACG is the Annotations Connectivity Graph (§6.2).
	ACG = acg.Graph
	// HopProfile is the Figure 7 hop-distance histogram.
	HopProfile = acg.Profile
	// VerificationTask is a §7 verification task.
	VerificationTask = verification.Task
	// VerificationOutcome is the routing result of one submission.
	VerificationOutcome = verification.Outcome
	// Bounds are the β_lower/β_upper thresholds.
	Bounds = verification.Bounds
	// Assessment holds the Definition 7.2 criteria.
	Assessment = verification.Assessment
	// Oracle simulates or represents a verifying expert.
	Oracle = verification.Oracle
	// TrainingExample is a BoundsSetting training annotation.
	TrainingExample = verification.TrainingExample
	// BoundsConfig parameterizes BoundsSetting.
	BoundsConfig = verification.BoundsConfig
	// BoundsEvaluation is one grid point of a BoundsSetting run.
	BoundsEvaluation = verification.BoundsEvaluation
)

// IdealOracle adapts an ideal edge set into an Oracle.
func IdealOracle(ideal IdealEdges) Oracle { return verification.IdealOracle(ideal) }

// DefaultBoundsConfig returns the standard BoundsSetting configuration.
func DefaultBoundsConfig() BoundsConfig { return verification.DefaultBoundsConfig() }

// Assess computes the Definition 7.2 criteria for one annotation's
// candidates under the given bounds.
func Assess(a AnnotationID, candidates []Candidate, bounds Bounds, oracle Oracle, nIdeal, nFocal int) Assessment {
	return verification.Assess(a, candidates, bounds, oracle, nIdeal, nFocal)
}

// AverageAssessments combines per-annotation assessments by mean.
func AverageAssessments(as []Assessment) Assessment { return verification.Average(as) }
