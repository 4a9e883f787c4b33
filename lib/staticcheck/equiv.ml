open Ickpt_runtime

type mismatch = {
  valuation : Symheap.valuation;
  assignment : (string * bool) list;
  generic : Symexec.outcome;
  residual : Symexec.outcome;
  detail : string;
}

type verdict =
  | Equivalent of { vars : int; paths : int }
  | Mismatch of mismatch
  | Inconclusive of string

(* The first way two traces disagree, if any: a differing, missing or
   extra emit event, a crash on one side, or a final flag left different.
   Event comparison is structural — Symexec already normalizes values
   (everything decidable under the valuation is folded), so structural
   equality of events is value equality on every materialized heap. *)
let trace_divergence sym (g : Symexec.outcome) (r : Symexec.outcome) =
  match (g, r) with
  | Symexec.Crashed m, _ ->
      (* The generic program is total on conforming heaps; a crash means
         the verifier itself is out of its depth. *)
      raise (Symexec.Unverifiable ("generic program crashed: " ^ m))
  | Symexec.Trace _, Symexec.Crashed m ->
      Some (Printf.sprintf "residual code crashes: %s" m)
  | Symexec.Trace gt, Symexec.Trace rt ->
      let rec events i gs rs =
        match (gs, rs) with
        | [], [] -> None
        | ge :: gs', re :: rs' ->
            if ge = re then events (i + 1) gs' rs'
            else
              Some
                (Format.asprintf "event %d: generic %a, residual %a" i
                   Symexec.pp_event ge Symexec.pp_event re)
        | ge :: _, [] ->
            Some
              (Format.asprintf "event %d: generic %a, residual ends" i
                 Symexec.pp_event ge)
        | [], re :: _ ->
            Some
              (Format.asprintf "event %d: generic ends, residual %a" i
                 Symexec.pp_event re)
      in
      let flag_div () =
        let d = ref None in
        Array.iteri
          (fun idx (n : Symheap.node) ->
            if !d = None && gt.Symexec.flags.(idx) <> rt.Symexec.flags.(idx)
            then
              d :=
                Some
                  (Printf.sprintf
                     "final modified(%s): generic %b, residual %b"
                     n.Symheap.path gt.Symexec.flags.(idx)
                     rt.Symexec.flags.(idx)))
          sym.Symheap.nodes;
        !d
      in
      (match events 0 gt.Symexec.events rt.Symexec.events with
      | Some _ as d -> d
      | None -> flag_div ())

let default_max_vars = 16

let check ?program ?(max_vars = default_max_vars) shape stmts =
  match Symheap.of_shape shape with
  | exception Jspec.Sclass.Ill_formed m -> Inconclusive ("ill-formed shape: " ^ m)
  | sym ->
      let vars = Symheap.n_vars sym in
      if vars > max_vars then
        Inconclusive
          (Printf.sprintf
             "%d boolean variables exceed the enumeration budget of %d" vars
             max_vars)
      else (
        let paths = ref 0 in
        let found = ref None in
        Symheap.iter_valuations sym (fun v ->
            if !found = None then begin
              incr paths;
              let g = Symexec.generic_trace ?program sym v in
              let r = Symexec.run ?program sym v stmts in
              match trace_divergence sym g r with
              | None -> ()
              | Some detail ->
                  found :=
                    Some
                      { valuation = Array.copy v;
                        assignment =
                          List.init vars (fun i ->
                              (Symheap.var_name sym i, v.(i)));
                        generic = g;
                        residual = r;
                        detail }
            end);
        match !found with
        | Some m -> Mismatch m
        | None -> Equivalent { vars; paths = !paths })

(* Anything the symbolic domain cannot decide surfaces as Inconclusive,
   never as a verdict in either direction. *)
let check ?program ?max_vars shape stmts =
  match check ?program ?max_vars shape stmts with
  | v -> v
  | exception Symexec.Unverifiable msg -> Inconclusive msg

type replay = {
  generic_bytes : string list;
  interp_bytes : (string list, string) result;
  compiled_bytes : (string list, string) result;
  state_match : bool;
  diverged : bool;
}

let rounds_of run root rounds =
  List.init rounds (fun _ ->
      let d = Ickpt_stream.Out_stream.create () in
      run d root;
      Ickpt_stream.Out_stream.contents d)

let try_rounds run root rounds =
  match rounds_of run root rounds with
  | bytes -> Ok bytes
  | exception e -> Error (Printexc.to_string e)

let replay ?(rounds = 2) shape (result : Jspec.Pe.result) valuation =
  let sym = Symheap.of_shape shape in
  (* Three structurally identical instances (same ids, fields, flags):
     the generic algorithm must not share a heap with the residual runs,
     or its flag resets would mask theirs. *)
  let root_g = Symheap.materialize sym valuation in
  let root_i = Symheap.materialize sym valuation in
  let root_c = Symheap.materialize sym valuation in
  let generic_bytes =
    rounds_of (fun d r -> Ickpt_core.Checkpointer.incremental d r) root_g rounds
  in
  let interp_bytes =
    try_rounds
      (fun d r ->
        Jspec.Interp.run_residual result.Jspec.Pe.body
          ~n_vars:result.Jspec.Pe.n_vars d r)
      root_i rounds
  in
  let compiled =
    try Ok (Jspec.Compile.residual result)
    with e -> Error (Printexc.to_string e)
  in
  let compiled_bytes =
    match compiled with
    | Error m -> Error m
    | Ok runner -> try_rounds (fun d r -> runner d r) root_c rounds
  in
  let state_match =
    (match interp_bytes with
     | Ok _ -> Deep_eq.equal root_g root_i
     | Error _ -> false)
    && (match compiled_bytes with
        | Ok _ -> Deep_eq.equal root_g root_c
        | Error _ -> false)
  in
  let bytes_diverged = function
    | Error _ -> true
    | Ok bs -> bs <> generic_bytes
  in
  { generic_bytes;
    interp_bytes;
    compiled_bytes;
    state_match;
    diverged =
      bytes_diverged interp_bytes
      || bytes_diverged compiled_bytes
      || not state_match }

let pp_assignment ppf assignment =
  if assignment = [] then Format.pp_print_string ppf "(no variables)"
  else
    Format.pp_print_list ~pp_sep:Format.pp_print_space
      (fun ppf (n, b) -> Format.fprintf ppf "%s=%b" n b)
      ppf assignment

let pp_mismatch ppf m =
  Format.fprintf ppf "@[<v 2>counterexample heap:@,%a@,%s@]" pp_assignment
    m.assignment m.detail

let hex s =
  String.concat ""
    (List.of_seq
       (Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (String.to_seq s)))

let pp_rounds ppf = function
  | Error m -> Format.fprintf ppf "error: %s" m
  | Ok bs ->
      Format.pp_print_list ~pp_sep:Format.pp_print_space
        (fun ppf b -> Format.pp_print_string ppf (hex b))
        ppf bs

let pp_replay ppf r =
  Format.fprintf ppf
    "@[<v 2>replay (%s):@,generic:  %a@,interp:   %a@,compiled: %a@,state %s@]"
    (if r.diverged then "diverged" else "agreed")
    pp_rounds (Ok r.generic_bytes) pp_rounds r.interp_bytes pp_rounds
    r.compiled_bytes
    (if r.state_match then "matches" else "differs")
