open Ickpt_synth
open Ickpt_harness

type scale = float

let structures scale = max 50 (int_of_float (20_000.0 *. scale))

let config ~scale ~list_len ~n_int_fields ~pct ~modified_lists ~last_only =
  { Synth.default_config with
    Synth.n_structures = structures scale;
    list_len;
    n_int_fields;
    pct_modified = pct;
    modified_lists;
    last_only }

type measured = { bytes : int; seconds : float }

(* A cell of the figures can take about a millisecond at small scales,
   where the best of a few runs is still noise; so a cell runs at least
   [min_repeats] times and until [min_seconds] of it has been timed. *)
let min_repeats = 5

let min_seconds = 0.020

let measure t runner =
  let roots = Synth.roots t in
  Synth.base_checkpoint t;
  let bytes = ref 0 in
  let rec go rep ~best ~total =
    if rep > min_repeats && total >= min_seconds then best
    else begin
      ignore (Synth.mutate_round t);
      let d =
        if rep = 1 then Ickpt_stream.Out_stream.create ()
        else Ickpt_stream.Out_stream.sink ()
      in
      let (), s =
        Clock.time (fun () -> List.iter (fun r -> runner d r) roots)
      in
      if rep = 1 then bytes := Ickpt_stream.Out_stream.size d;
      go (rep + 1) ~best:(Float.min best s) ~total:(total +. s)
    end
  in
  let seconds = go 1 ~best:infinity ~total:0. in
  { bytes = !bytes; seconds }

let generic_core d o = Ickpt_core.Checkpointer.incremental d o

let full_core d o = Ickpt_core.Checkpointer.full_tree d o

let specialized backend shape =
  backend.Ickpt_backend.Backend.specialize (Jspec.Pe.specialize shape)

type status = Pass | Fail | Not_applicable of string

type check = { label : string; status : status; detail : string }

let check ~label ~ok ~detail =
  { label; status = (if ok then Pass else Fail); detail }

let requires holds ~reason c =
  if holds then c else { c with status = Not_applicable reason }

let pp_check ppf c =
  match c.status with
  | Pass -> Format.fprintf ppf "[PASS] %s — %s" c.label c.detail
  | Fail -> Format.fprintf ppf "[FAIL] %s — %s" c.label c.detail
  | Not_applicable reason -> Format.fprintf ppf "[N/A] %s — %s" c.label reason

let pp_checks ppf checks =
  List.iter (fun c -> Format.fprintf ppf "%a@." pp_check c) checks

let failures = List.filter (fun c -> c.status = Fail)

let compare_runners cfg ~baseline ~subject =
  let run mk =
    let t = Synth.build cfg in
    measure t (mk t)
  in
  let b = run baseline in
  let s = run subject in
  (b, s, b.seconds /. s.seconds)

(* Same probing as the test suites: runtest executes in the test
   directory, dune exec at the workspace root. *)
let example_path file =
  let candidates =
    [ Filename.concat "examples/workloads" file;
      Filename.concat "../examples/workloads" file;
      Filename.concat "../../examples/workloads" file;
      Filename.concat "_build/default/examples/workloads" file ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith (Printf.sprintf "example workload %s not found" file)

let load_program path =
  Minic.Parser.parse (In_channel.with_open_bin path In_channel.input_all)

let load_example file = load_program (example_path file)

let generator_programs () =
  [ ("image", Minic.Gen.image_program ());
    ("small", Minic.Gen.small_program ()) ]

(* ---- scratch files ------------------------------------------------------ *)

let with_temp_files name files f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ickpt_%d_%s" (Unix.getpid ())
         (String.map (function '/' | '.' -> '_' | c -> c) name))
  in
  let clean () =
    List.iter (fun p -> if Sys.file_exists p then Sys.remove p) (files path)
  in
  clean ();
  Fun.protect ~finally:clean (fun () -> f path)

let with_store schema name f =
  let open Ickpt_cas in
  with_temp_files name
    (fun p -> [ Store.pack_path p; Store.index_path p ])
    (fun path -> f (Store.open_ schema ~path))

let full_body roots =
  let d = Ickpt_stream.Out_stream.create () in
  Ickpt_core.Checkpointer.full_many d roots;
  Ickpt_stream.Out_stream.contents d
