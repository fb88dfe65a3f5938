package graphproc

import (
	"fmt"
	"math"

	"atlarge/internal/stats"
)

// BenchmarkConfig scales a Graphalytics run.
type BenchmarkConfig struct {
	// VertexCount per generated dataset.
	VertexCount int
	Datasets    []DatasetKind
	Algorithms  []string
	Engines     []Engine
	Seed        int64
}

// DefaultBenchmarkConfig covers the full PAD cube at test scale.
func DefaultBenchmarkConfig() BenchmarkConfig {
	return BenchmarkConfig{
		VertexCount: 2000,
		Datasets:    []DatasetKind{DatasetRMAT, DatasetUniform, DatasetLattice, DatasetSmallWorld},
		Algorithms:  Algorithms(),
		Engines:     StandardEngines(),
		Seed:        1,
	}
}

// Cell is one (platform, algorithm, dataset) measurement.
type Cell struct {
	Engine    string
	Algorithm string
	Dataset   string
	RuntimeMS float64
	Profile   *Profile
}

// BenchmarkResult is a full Graphalytics sweep.
type BenchmarkResult struct {
	Cells []Cell
	// Graphs maps dataset name to (n, m).
	Graphs map[string][2]int
}

// RunBenchmark executes the full PAD sweep: every algorithm actually runs on
// every dataset (producing a verified result and an execution profile), and
// every engine prices the profile with its cost model.
func RunBenchmark(cfg BenchmarkConfig) (*BenchmarkResult, error) {
	res := &BenchmarkResult{Graphs: make(map[string][2]int)}
	for _, e := range cfg.Engines {
		if err := e.Validate(); err != nil {
			return nil, err
		}
	}
	for di, dk := range cfg.Datasets {
		g, err := Generate(dk, cfg.VertexCount, cfg.Seed+int64(di), true)
		if err != nil {
			return nil, fmt.Errorf("graphproc: generate %s: %w", dk, err)
		}
		res.Graphs[g.Name] = [2]int{g.N, g.M()}
		for _, algo := range cfg.Algorithms {
			_, prof, err := RunAlgorithm(algo, g)
			if err != nil {
				return nil, fmt.Errorf("graphproc: %s on %s: %w", algo, g.Name, err)
			}
			for _, e := range cfg.Engines {
				res.Cells = append(res.Cells, Cell{
					Engine:    e.Name,
					Algorithm: algo,
					Dataset:   g.Name,
					RuntimeMS: e.Runtime(prof, g.M()),
					Profile:   prof,
				})
			}
		}
	}
	return res, nil
}

// Table returns runtimes as engines × (algorithm,dataset) cells, with the
// row and column labels.
func (r *BenchmarkResult) Table() (rows []string, cols []string, cells [][]float64) {
	engineSet := map[string]int{}
	colSet := map[string]int{}
	for _, c := range r.Cells {
		if _, ok := engineSet[c.Engine]; !ok {
			engineSet[c.Engine] = len(engineSet)
			rows = append(rows, c.Engine)
		}
		key := c.Algorithm + "/" + c.Dataset
		if _, ok := colSet[key]; !ok {
			colSet[key] = len(colSet)
			cols = append(cols, key)
		}
	}
	cells = make([][]float64, len(rows))
	for i := range cells {
		cells[i] = make([]float64, len(cols))
	}
	for _, c := range r.Cells {
		cells[engineSet[c.Engine]][colSet[c.Algorithm+"/"+c.Dataset]] = c.RuntimeMS
	}
	return rows, cols, cells
}

// PADReport is the statistical verdict on the PAD law.
type PADReport struct {
	// DistinctWinners counts engines that win at least one workload column.
	DistinctWinners int
	// WinnerByColumn maps "algo/dataset" to the winning engine.
	WinnerByColumn map[string]string
	// InteractionFrac is the fraction of log-runtime variance attributable
	// to the platform × workload interaction (two-factor decomposition).
	InteractionFrac float64
	// PlatformFrac and WorkloadFrac are the main-effect fractions.
	PlatformFrac float64
	WorkloadFrac float64
}

// AnalyzePAD computes the PAD-law statistics from a sweep.
func AnalyzePAD(r *BenchmarkResult) (*PADReport, error) {
	rows, cols, cells := r.Table()
	if len(rows) < 2 || len(cols) < 2 {
		return nil, fmt.Errorf("graphproc: PAD analysis needs >= 2 engines and workloads")
	}
	logCells := make([][]float64, len(cells))
	for i, row := range cells {
		logCells[i] = make([]float64, len(row))
		for j, v := range row {
			if v <= 0 {
				v = 1e-9
			}
			logCells[i][j] = math.Log(v)
		}
	}
	dec, err := stats.DecomposeTwoFactor(logCells)
	if err != nil {
		return nil, err
	}
	nWin, winners := stats.WinnerChanges(cells)
	rep := &PADReport{
		DistinctWinners: nWin,
		WinnerByColumn:  make(map[string]string, len(cols)),
		InteractionFrac: dec.FracInteraction,
		PlatformFrac:    dec.FracA,
		WorkloadFrac:    dec.FracB,
	}
	for j, col := range cols {
		rep.WinnerByColumn[col] = rows[winners[j]]
	}
	return rep, nil
}

// HPADReport extends the PAD analysis with the heterogeneous-hardware
// dimension (Table 8, Uta et al. '18): comparing the winner sets with and
// without the H platforms.
type HPADReport struct {
	WinnersWithoutH int
	WinnersWithH    int
	// HWinsColumns counts workload columns won by a heterogeneous platform.
	HWinsColumns int
}

// AnalyzeHPAD computes the HPAD comparison from a sweep that includes
// heterogeneous engines.
func AnalyzeHPAD(r *BenchmarkResult, engines []Engine) (*HPADReport, error) {
	hetero := map[string]bool{}
	for _, e := range engines {
		if e.Heterogeneous {
			hetero[e.Name] = true
		}
	}
	if len(hetero) == 0 {
		return nil, fmt.Errorf("graphproc: no heterogeneous engines in sweep")
	}
	rows, _, cells := r.Table()

	// Full winner analysis.
	nAll, winnersAll := stats.WinnerChanges(cells)

	// Without H rows.
	var subRows []string
	var subCells [][]float64
	for i, name := range rows {
		if !hetero[name] {
			subRows = append(subRows, name)
			subCells = append(subCells, cells[i])
		}
	}
	nSub, _ := stats.WinnerChanges(subCells)

	rep := &HPADReport{WinnersWithoutH: nSub, WinnersWithH: nAll}
	for _, w := range winnersAll {
		if hetero[rows[w]] {
			rep.HWinsColumns++
		}
	}
	return rep, nil
}
