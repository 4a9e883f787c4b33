open Ickpt_analysis
open Staticcheck

let name = "par"

let title =
  "Domain-parallel execution ablation: interference-scheduled phases and \
   iteration strips on OCaml domains, every row gated by the \
   sequential-identity oracle (extension)"

type row = {
  workload : string;
  domains : int;
  par_sweeps : int;
  refused : int;
  groups : int;
  par_units : int;
  seq_seconds : float;
  par_seconds : float;
  speedup : float;
  identical : bool;
  oracle_ok : bool;
}

(* ---- workload sources ---------------------------------------------------- *)

(* A stencil big enough that strip fan-out has real work per domain: the
   example workloads finish in microseconds, where domain spawn cost
   dominates any speedup. Both sweeps are recognizable (assign-then-
   single-while over literal bounds) and strip-disjoint. *)
let stencil_src =
  "int src[2048];\n\
   int dst[2048];\n\
   int round = 0;\n\
   \n\
   void fill() {\n\
  \  int i;\n\
  \  i = 0;\n\
  \  while (i < 2048) {\n\
  \    src[i] = (i * 37 + 11) % 255;\n\
  \    i = i + 1;\n\
  \  }\n\
   }\n\
   \n\
   void smooth() {\n\
  \  int i;\n\
  \  i = 1;\n\
  \  while (i < 2047) {\n\
  \    dst[i] = (src[i - 1] * 3 + src[i] * 5 + src[i + 1] * 3) / 11;\n\
  \    dst[i] = (dst[i] * 7 + src[i] % 13 + 5) % 255;\n\
  \    dst[i] = dst[i] + (src[i] * src[i]) % 17;\n\
  \    i = i + 1;\n\
  \  }\n\
   }\n\
   \n\
   void commit() {\n\
  \  int i;\n\
  \  i = 0;\n\
  \  while (i < 2048) {\n\
  \    src[i] = (dst[i] * 7 + src[i]) % 251;\n\
  \    i = i + 1;\n\
  \  }\n\
   }\n\
   \n\
   int main() {\n\
  \  fill();\n\
  \  while (round < 4) {\n\
  \    smooth();\n\
  \    commit();\n\
  \    round = round + 1;\n\
  \  }\n\
  \  return src[17];\n\
   }\n"

let workloads () =
  List.map
    (fun f -> (Filename.remove_extension f, Workload.load_example f))
    [ "blur.mc"; "pagerank.mc"; "kvlog.mc"; "histogram.mc" ]
  @ [ ("stencil-2k", Minic.Parser.parse stencil_src) ]

(* ---- measurement --------------------------------------------------------- *)

let domain_counts = [ 1; 2; 4 ]

let measure_workload (wname, program) =
  let env = Minic.Check.check program in
  let t = Auto_spec.infer env in
  let _, seq_seconds =
    Ickpt_harness.Clock.best_of ~repeats:2 (fun () ->
        Engine.analyze (Engine.Inferred Engine.inferred) program)
  in
  let rows =
    List.map
      (fun d ->
        let sc = Interfere.schedule ~domains:d t in
        let _, par_seconds =
          Ickpt_harness.Clock.best_of ~repeats:2 (fun () ->
              Engine.analyze
                (Engine.Inferred
                   { Engine.inferred with
                     parallel = Some { domains = d; seed_racy = false } })
                program)
        in
        let o =
          Elide_oracle.run ~name:wname
            (Elide_oracle.Parallel { domains = d; seed_racy = false })
            program
        in
        { workload = wname;
          domains = d;
          par_sweeps = sc.Interfere.Schedule.sc_par_sweeps;
          refused = sc.Interfere.Schedule.sc_refused_sweeps;
          groups = sc.Interfere.Schedule.sc_groups;
          par_units = o.Elide_oracle.tallies.Elide_oracle.par_units;
          seq_seconds;
          par_seconds;
          speedup = 1.0 (* filled in below from the 1-domain row *);
          identical =
            not
              (List.exists
                 (fun f -> f.Elide_oracle.check = Elide_oracle.Identity)
                 o.Elide_oracle.failures);
          oracle_ok = Elide_oracle.ok o })
      domain_counts
  in
  let t1 = (List.find (fun r -> r.domains = 1) rows).par_seconds in
  List.map
    (fun r ->
      { r with
        speedup = (if r.par_seconds > 0.0 then t1 /. r.par_seconds else 1.0) })
    rows

let measure_all () = List.concat_map measure_workload (workloads ())

(* ---- checks + document -------------------------------------------------- *)

let checks ~host_cores rows =
  let open Workload in
  [ check ~label:"par: sequential-identity oracle passes on every row"
      ~ok:(rows <> [] && List.for_all (fun r -> r.oracle_ok) rows)
      ~detail:
        "every parallel execution produced byte-identical chains in both \
         modes and pairwise-disjoint observed footprints in every fork \
         group";
    check ~label:"par: parallel chains byte-identical to sequential"
      ~ok:(List.for_all (fun r -> r.identical) rows)
      ~detail:
        "replaying domain-local write logs in schedule order reproduces \
         the sequential barrier stream exactly";
    check ~label:"par: the schedule parallelizes real work"
      ~ok:
        (List.exists (fun r -> r.domains = 4 && r.par_units > 0) rows)
      ~detail:
        "at 4 domains at least one workload executes parallel units \
         (iteration strips or grouped phases)";
    check ~label:"par: the conflicting kvlog sweep is refused, not run"
      ~ok:
        (List.for_all
           (fun r ->
             r.workload <> "kvlog" || r.domains < 2
             || (r.refused >= 1 && r.par_sweeps = 0))
           rows)
      ~detail:
        "kvlog's hash-scatter strips may collide on the whole table, so \
         the analysis must refuse them whenever there are >= 2 strips (a \
         single strip is trivially disjoint)";
    check ~label:"par: >= 1.5x speedup at 4 domains on >= 1 workload"
      ~ok:
        (List.exists (fun r -> r.domains = 4 && r.speedup >= 1.5) rows)
      ~detail:
        "with a core per domain, strip fan-out must pay for its snapshot \
         and replay overhead somewhere"
    |> requires (host_cores >= 4)
         ~reason:
           (Printf.sprintf
              "needs host_cores >= 4, one per domain measured; this host has \
               %d (identity and disjointness still gate every row)"
              host_cores) ]

let columns =
  Bench_doc.
    [ column ~head:"workload" "workload" (fun r -> String r.workload);
      column ~head:"domains" "domains" (fun r -> Int r.domains);
      column ~head:"sweeps" "par_sweeps" (fun r -> Int r.par_sweeps);
      column ~head:"refused" "refused_sweeps" (fun r -> Int r.refused);
      column ~head:"groups" "groups" (fun r -> Int r.groups);
      column ~head:"units" "par_units" (fun r -> Int r.par_units);
      column ~head:"seq" "seq_seconds" (fun r -> Seconds (6, r.seq_seconds));
      column ~head:"par" "par_seconds" (fun r -> Seconds (6, r.par_seconds));
      column ~head:"speedup" "speedup" (fun r -> Ratio r.speedup);
      column ~head:"identical" "identical_to_sequential" (fun r ->
          Bool r.identical);
      column ~head:"oracle" "oracle_ok" (fun r -> Bool r.oracle_ok) ]

let doc rows =
  let host_cores = Bench_doc.host_cores () in
  Bench_doc.make ~bench:"domain-parallel execution ablation" ~title
    ~unit:"wall-clock seconds; speedup vs the 1-domain execution" ~host_cores
    columns rows (checks ~host_cores rows)

let run ~scale:_ ppf = Bench_doc.print_table ppf (doc (measure_all ()))
