open Ickpt_harness

type cell =
  | Int of int
  | Float of int * float
  | Seconds of int * float
  | Bytes of int
  | Ratio of float
  | Bool of bool
  | String of string

type 'r column = { key : string; head : string option; cell : 'r -> cell }

let column ?head key cell = { key; head; cell }

(* Invalid UTF-8 (a Latin-1 file name, say) becomes U+FFFD, so the
   document stays valid JSON whatever bytes a workload name holds. *)
let valid_utf_8 s =
  let buf = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then begin
      let d = String.get_utf_8_uchar s i in
      Buffer.add_utf_8_uchar buf (Uchar.utf_decode_uchar d);
      go (i + Uchar.utf_decode_length d)
    end
  in
  go 0;
  Buffer.contents buf

let str s = "\"" ^ Staticcheck.Finding.json_escape (valid_utf_8 s) ^ "\""

let fixed decimals v =
  if Float.is_finite v then Printf.sprintf "%.*f" decimals v else "null"

let json_cell = function
  | Int n | Bytes n -> string_of_int n
  | Float (d, v) | Seconds (d, v) -> fixed d v
  | Ratio v -> fixed 3 v
  | Bool b -> string_of_bool b
  | String s -> str s

let table_cell = function
  | Int n -> string_of_int n
  | Float (d, v) -> Printf.sprintf "%.*f" d v
  | Seconds (_, v) -> Table.cell_seconds v
  | Bytes n -> Table.cell_bytes n
  | Ratio v -> Table.cell_speedup v
  | Bool b -> if b then "yes" else "NO"
  | String s -> s

type t = {
  bench : string;
  title : string;
  unit_ : string;
  host_cores : int;
  json_rows : (string * string) list list;  (* key, JSON value *)
  heads : string list;
  table_rows : string list list;
  checks : Workload.check list;
}

let host_cores () = Domain.recommended_domain_count ()

let make ~bench ~title ~unit ?(host_cores = host_cores ()) columns rows
    checks =
  let shown = List.filter (fun c -> c.head <> None) columns in
  let render cols f = List.map (fun r -> List.map (fun c -> f c r) cols) rows in
  { bench; title; unit_ = unit; host_cores; checks;
    json_rows = render columns (fun c r -> (c.key, json_cell (c.cell r)));
    heads = List.filter_map (fun c -> c.head) columns;
    table_rows = render shown (fun c r -> table_cell (c.cell r)) }

(* ---- JSON ---------------------------------------------------------------- *)

let obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
  ^ "}"

let array = function
  | [] -> "[]"
  | items -> "[\n    " ^ String.concat ",\n    " items ^ "\n  ]"

let json_check { Workload.label; status; detail } =
  let status, reason =
    match status with
    | Workload.Pass -> ("pass", [])
    | Workload.Fail -> ("fail", [])
    | Workload.Not_applicable r -> ("n/a", [ ("reason", str r) ])
  in
  obj
    ([ ("label", str label); ("status", str status); ("detail", str detail) ]
    @ reason)

let to_json d =
  Printf.sprintf
    "{\n\
    \  \"bench\": %s,\n\
    \  \"unit\": %s,\n\
    \  \"host_cores\": %d,\n\
    \  \"rows\": %s,\n\
    \  \"checks\": %s\n\
     }\n"
    (str d.bench) (str d.unit_) d.host_cores
    (array (List.map obj d.json_rows))
    (array (List.map json_check d.checks))

(* ---- text ---------------------------------------------------------------- *)

let print_table ppf d =
  let table = Table.create ~title:d.title ~columns:d.heads in
  List.iter (Table.add_row table) d.table_rows;
  Format.fprintf ppf "%a@." Table.pp table;
  d.checks

let emit ?out ppf d =
  let checks = print_table ppf d in
  Workload.pp_checks ppf checks;
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (to_json d));
      Format.fprintf ppf "wrote %s@." path)
    out;
  Workload.failures checks
