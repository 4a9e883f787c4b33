(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Tables 1-2, Figures 7-11) and runs the Bechamel
   micro-benchmarks.

   Usage: dune exec bench/main.exe -- [NAMES...] [--paper] [--scale F]
                                      [--micro-only] [--no-micro]

   NAMES select experiments (default: all): table1 fig7 fig8 fig9 fig10
   fig11 table2. --scale sets the synthetic population as a fraction of the
   paper's 20,000 structures (default 0.1); --paper is --scale 1. *)

open Ickpt_experiments

type options = {
  mutable scale : float;
  mutable names : string list;
  mutable micro : bool;
  mutable micro_only : bool;
}

let parse_args () =
  let o = { scale = 0.1; names = []; micro = true; micro_only = false } in
  let rec go = function
    | [] -> ()
    | "--paper" :: rest ->
        o.scale <- 1.0;
        go rest
    | "--scale" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0.0 -> o.scale <- f
        | _ ->
            prerr_endline "bench: --scale expects a positive number";
            exit 2);
        go rest
    | "--micro-only" :: rest ->
        o.micro_only <- true;
        go rest
    | "--no-micro" :: rest ->
        o.micro <- false;
        go rest
    | ("--help" | "-h") :: _ ->
        print_endline
          "usage: main.exe [NAMES...] [--paper] [--scale F] [--micro-only] \
           [--no-micro]";
        exit 0
    | name :: rest ->
        o.names <- o.names @ [ name ];
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  o

let () =
  let o = parse_args () in
  let ppf = Format.std_formatter in
  Format.fprintf ppf
    "icheckpoint benchmark harness — reproducing Lawall & Muller, DSN 2000@.";
  Format.fprintf ppf "scale %.2f (%d synthetic structures at full grids)@."
    o.scale
    (Workload.structures o.scale);
  let failures = ref 0 in
  if not o.micro_only then begin
    let names = match o.names with [] -> None | names -> Some names in
    let results = Registry.run_all ?names ~scale:o.scale ppf in
    Format.fprintf ppf "@.== shape-check summary ==@.";
    List.iter
      (fun (name, checks) ->
        let failed = List.length (Workload.failures checks) in
        let passed =
          List.length
            (List.filter (fun c -> c.Workload.status = Workload.Pass) checks)
        in
        failures := !failures + failed;
        Format.fprintf ppf "%-8s %d/%d checks pass, %d n/a@." name passed
          (List.length checks)
          (List.length checks - passed - failed))
      results
  end;
  if o.micro || o.micro_only then Micro.run ppf;
  if !failures > 0 then
    Format.fprintf ppf
      "@.%d shape check(s) failed — timing-sensitive checks can fail on a \
       noisy host; re-run with a larger --scale for stabler ratios.@."
      !failures
