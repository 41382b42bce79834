package truncation

import (
	"bufio"
	"fmt"
	"io"
)

// WriteOccurrences serializes the occurrence form as the text handoff of the
// paper's system diagram (Figure 3): the RDBMS evaluates the rewritten
// reporting query and exports one line per join result — its ψ weight
// followed by the individuals it references — which the LP stage consumes.
// Format:
//
//	#individuals <n>
//	<psi> <ind> <ind> ...          (one line per occurrence)
//	#group <psi_l> <occ> <occ> ... (one line per projection group, SPJA only)
func WriteOccurrences(w io.Writer, o *Occurrences) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "#individuals %d\n", len(o.Universe)); err != nil {
		return err
	}
	for _, row := range o.Rows {
		if _, err := fmt.Fprintf(bw, "%g", row.Psi); err != nil {
			return err
		}
		for _, j := range row.RefIDs {
			if _, err := fmt.Fprintf(bw, " %d", j); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	for l, group := range o.Groups {
		if _, err := fmt.Fprintf(bw, "#group %g", o.GroupPsi[l]); err != nil {
			return err
		}
		for _, k := range group {
			if _, err := fmt.Fprintf(bw, " %d", k); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
