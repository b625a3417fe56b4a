package gnb

import "fmt"

// CellBatch is Cell: every cell steps on the structure-of-arrays engine.
//
// Deprecated: use Cell. The alias and NewCellBatch remain only for
// bench/midbench, their sole caller, and go with its next change.
type CellBatch = Cell

// NewCellBatch returns cell itself, rejecting nil and share-model cells.
//
// Deprecated: step the Cell directly (see CellBatch).
func NewCellBatch(cell *Cell) (*CellBatch, error) {
	if cell == nil || cell.cfg.Model != CellModelContention {
		return nil, fmt.Errorf("gnb: NewCellBatch needs a contention-model cell")
	}
	return cell, nil
}
