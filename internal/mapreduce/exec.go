package mapreduce

// exec.go completes the Hadoop Streaming analogy: real Hadoop
// Streaming runs arbitrary executables as mappers and reducers,
// feeding them lines on stdin and reading "key<TAB>value" lines from
// stdout. ExecMapper and ExecReducer adapt external commands to the
// StreamJob interface, so a job can mix Go functions and subprocess
// stages — the exact wire protocol the course's Python mappers speak.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
)

// runCommand feeds input lines to the command's stdin and returns its
// stdout lines. Any stderr output is attached to errors.
func runCommand(argv []string, input []string) ([]string, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("mapreduce: empty command")
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdin = strings.NewReader(strings.Join(input, "\n") + "\n")
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("mapreduce: %v: %w (stderr: %s)", argv, err, strings.TrimSpace(errBuf.String()))
	}
	var lines []string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	return lines, sc.Err()
}

// ExecMapper wraps an external command as a StreamMapper. Hadoop
// Streaming semantics: the command receives input lines on stdin and
// prints "key<TAB>value" lines; a line without a tab is a key with an
// empty value. The command is invoked once per input line, which
// keeps the adapter simple at the cost of process-launch overhead —
// batching lives in ExecMapperBatched.
func ExecMapper(argv ...string) StreamMapper {
	return func(line string, emit func(key, value string)) error {
		out, err := runCommand(argv, []string{line})
		if err != nil {
			return err
		}
		for _, l := range out {
			k, v := ParseKV(l)
			emit(k, v)
		}
		return nil
	}
}

// ExecReducer wraps an external command as a StreamReducer. The
// command receives the group's "key<TAB>value" lines on stdin (the
// sorted-input contract of Hadoop Streaming reducers) and every
// stdout line becomes a job output line.
func ExecReducer(argv ...string) StreamReducer {
	return func(key string, values []string, emit func(string)) error {
		input := make([]string, len(values))
		for i, v := range values {
			input[i] = FormatKV(key, v)
		}
		out, err := runCommand(argv, input)
		if err != nil {
			return err
		}
		for _, l := range out {
			emit(l)
		}
		return nil
	}
}

// RunStreamingPipeline executes a full streaming job whose mapper and
// reducer are external commands, invoked once per map split / reduce
// group batch rather than per record: the mapper command receives the
// whole split on stdin (exactly how Hadoop Streaming launches one
// process per task), so per-process overhead is amortized. Map tasks
// run under cfg.Parallelism like any other job's.
func RunStreamingPipeline(inputs []string, mapperArgv, reducerArgv []string, cfg Config[string]) ([]string, Stats, error) {
	job := &Job[string, string, string, string]{
		Map:    Mapper[string, string, string](ExecMapper(mapperArgv...)), // per-record equivalent of the batched body below
		Reduce: Reducer[string, string, string](ExecReducer(reducerArgv...)),
		Config: cfg,
	}
	batched := func(ctx context.Context, r *jobRun[string, string, string, string], t int) ([]run[string, string], int, int, error) {
		return job.mapAttempts(ctx, t, r.cfg, r.inj, func(emit func(string, string)) error {
			lines, err := runCommand(mapperArgv, r.splits[t])
			if err != nil {
				return err
			}
			for _, l := range lines {
				emit(ParseKV(l))
			}
			return nil
		})
	}
	return job.runJob(context.Background(), inputs, batched, nil)
}
