(** Unified lint findings: one reportable type for spec-lint diagnostics
    and residual-code findings, with deterministic ordering and a report
    grouped by reason (the same presentation as [Jspec.Guard.pp_report],
    so static and runtime output read alike). Unsound declarations are
    [Error]s — they fail the build; everything else is a [Warning]. *)

type severity = Error | Warning

type t = { severity : severity; scope : string; path : string; reason : string }

val of_spec : Spec_lint.diagnostic -> t
val of_residual : phase:string -> Residual_lint.finding -> t

val sort : t list -> t list
(** Sorted by (scope, path, reason), duplicates removed. *)

val dedup : t list -> t list
(** {!sort}, then collapse findings with identical (scope, path) — the
    rule and the location — to a single entry at the highest severity
    present (reason ties break toward sort order). {!pp_report} applies
    this before grouping. *)

val has_errors : t list -> bool
val count : severity -> t list -> int

val group_by_reason : t list -> (string * t list) list
(** Reasons in alphabetical order, each with its sorted findings. *)

val pp : Format.formatter -> t -> unit
val pp_report : Format.formatter -> t list -> unit

(** {1 JSON}

    The uniform machine-readable envelope shared by every [ickpt_lint]
    subcommand: top-level [tool], [schema_version], [subcommand],
    [errors], [warnings], [findings] and [exit_code] fields, so
    downstream tooling parses one schema whatever the subcommand. *)

val schema_version : int
(** Version of the envelope layout (currently [4]: the version that
    parameterized the [tool] field — [ickpt_serve] shares the envelope —
    and added hash-collision findings; [3] added the [par] subcommand to
    the family; [2] introduced the [schema_version] field itself).
    Consumers should reject envelopes with a higher major version than
    they understand. *)

val json_escape : string -> string

val to_json : t -> string
(** One finding as a JSON object. *)

val envelope :
  ?tool:string ->
  subcommand:string ->
  ?extra:(string * string) list ->
  exit_code:int ->
  t list ->
  string
(** The whole envelope (one line, no trailing newline). [tool] (default
    ["ickpt_lint"]) names the emitting executable; [extra] pairs are
    spliced in as additional top-level fields; each value must already be
    valid JSON. *)
