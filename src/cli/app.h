#pragma once

namespace ezflow::cli {

/// Entry point of the unified `ezflow` binary:
///   ezflow list [--category=<c>]
///   ezflow run <figure...> [--scale= --seed= --seeds= --threads= --out=
///                           --csv= --smoke --all --json-only --quiet]
///   ezflow diff <golden> <candidate> [--rel-tol= --abs-tol= --bit-exact]
///   ezflow help [command]
/// Returns a process exit code (0 ok, 1 run/diff failure, 2 usage error).
int run_app(int argc, char** argv);

}  // namespace ezflow::cli
