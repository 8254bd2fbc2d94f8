(* Run-record provenance: which commit and which machine produced a
   BENCH_*.json.  Both lookups are best-effort — a missing git binary or a
   non-repo checkout degrade to "unknown" rather than failing the run. *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    match (status, String.trim line) with
    | Unix.WEXITED 0, rev when rev <> "" -> rev
    | _ -> "unknown"
  with _ -> "unknown"

let hostname () = try Unix.gethostname () with _ -> "unknown"

let fields () =
  [ ("git_rev", Json.String (git_rev ()));
    ("hostname", Json.String (hostname ()));
    ("ocaml", Json.String Sys.ocaml_version);
    ("cores", Json.Int (Domain.recommended_domain_count ()));
    ("ocamlrunparam", Json.String (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"")) ]
