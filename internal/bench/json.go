package bench

import (
	"encoding/json"
	"os"
)

// Record is the JSON-serializable form of a set of experiment results.
type Record struct {
	Experiment string   `json:"experiment"`
	Scale      float64  `json:"scale"`
	Reps       int      `json:"reps"`
	Workers    int      `json:"workers"`
	Results    []Result `json:"results"`
}

// WriteJSON appends records to path as a JSON array (the file is
// rewritten whole; callers accumulate records across experiments).
func WriteJSON(path string, records []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
