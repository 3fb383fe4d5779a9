package mapreduce

// streaming.go is the Hadoop-Streaming-analog front end the assignment
// uses: records are text lines, mappers and reducers exchange
// tab-separated "key<TAB>value" lines, and inputs arrive as readers
// (files). The typed engine underneath does the actual work.

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// StreamMapper consumes one input line and emits key/value string
// pairs, mirroring a streaming mapper reading stdin and printing
// "key\tvalue" lines.
type StreamMapper func(line string, emit func(key, value string)) error

// StreamReducer consumes one key and all its values (the group-by-keys
// phase output) and emits output lines.
type StreamReducer func(key string, values []string, emit func(line string)) error

// StreamJob is a line-oriented MapReduce job.
type StreamJob struct {
	Name     string
	Map      StreamMapper
	Reduce   StreamReducer
	Config   Config[string]
	Counters *Counters
}

// RunLines executes the job over in-memory input lines and returns
// output lines in deterministic (partition, key) order.
func (s *StreamJob) RunLines(lines []string) ([]string, Stats, error) {
	job := &Job[string, string, string, string]{
		Name:     s.Name,
		Counters: s.Counters,
		Config:   s.Config,
		Map:      Mapper[string, string, string](s.Map),
		Reduce:   Reducer[string, string, string](s.Reduce),
	}
	out, st, err := job.Run(lines)
	s.Counters = job.Counters
	return out, st, err
}

// RunReaders reads every input reader fully (one logical input file
// each, newline-separated) and executes the job over the concatenated
// lines, preserving file order — the moral equivalent of pointing a
// streaming job at an input directory.
func (s *StreamJob) RunReaders(readers ...io.Reader) ([]string, Stats, error) {
	var lines []string
	for i, r := range readers {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		if err := sc.Err(); err != nil {
			return nil, Stats{}, fmt.Errorf("mapreduce: reading input %d: %w", i, err)
		}
	}
	return s.RunLines(lines)
}

// ParseKV splits a "key<TAB>value" line produced by a streaming
// mapper. Lines without a tab yield the whole line as key and an
// empty value, matching Hadoop Streaming's convention.
func ParseKV(line string) (key, value string) {
	if i := strings.IndexByte(line, '\t'); i >= 0 {
		return line[:i], line[i+1:]
	}
	return line, ""
}

// FormatKV renders a "key<TAB>value" line.
func FormatKV(key, value string) string {
	return key + "\t" + value
}
