(** One bench document for the extension ablations (BENCH_4–8): a name,
    a unit string, the host core count, one typed column list, the rows
    and the shape checks. From that one description come the JSON
    document ([ickpt_bench ... -o]), the text table and the printed
    checks with the exit verdict. *)

type cell =
  | Int of int
  | Float of int * float  (** printed with that many decimals *)
  | Seconds of int * float
      (** that many decimals in the JSON; scaled s/ms/us in the table *)
  | Bytes of int  (** an integer in the JSON; Kb/Mb in the table *)
  | Ratio of float  (** three decimals in the JSON; [1.23x] in the table *)
  | Bool of bool  (** [yes]/[NO] in the table *)
  | String of string

type 'r column

val column : ?head:string -> string -> ('r -> cell) -> 'r column
(** [column ?head key cell]: the row field [key] of the JSON; with
    [head], the text table shows it too, under that header. *)

type t

val host_cores : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val make :
  bench:string -> title:string -> unit:string -> ?host_cores:int ->
  'r column list -> 'r list -> Workload.check list -> t
(** [host_cores] defaults to {!host_cores}[ ()]. *)

val to_json : t -> string
(** [{"bench", "unit", "host_cores", "rows": [..], "checks": [..]}]: one
    object per row with the columns' keys in order; one
    [{"label", "status", "detail"}] object per check, [status] one of
    ["pass"], ["fail"], ["n/a"], plus ["reason"] when N/A. Strings are
    escaped with {!Staticcheck.Finding.json_escape}, invalid UTF-8
    replaced by U+FFFD first; a non-finite float
    is [null]. *)

val print_table : Format.formatter -> t -> Workload.check list
(** Print the columns that have a header as an {!Ickpt_harness.Table};
    return the checks (a registry entry's result). *)

val emit : ?out:string -> Format.formatter -> t -> Workload.check list
(** Print the table and the checks, write {!to_json} to [out] when
    given, and return the checks that FAILed (N/A ones are not). *)
