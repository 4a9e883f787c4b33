(* Tests for the fault-injection vfs, the store's torn-tail resume and
   atomic compaction under power loss, and the crash-sweep driver itself:
   the tallies the default sweeps reach and a fake workload whose unsynced
   commits it must catch. *)

open Ickpt_runtime
open Ickpt_core
open Ickpt_faultsim
open Test_util

let log = "ckpt.log"

let store = "ckpt.store"

(* ------------------------------------------------------------------ *)
(* The simulator itself: the durability contract it models.           *)

let sim_crash_modes () =
  let run mode =
    (* ops: 0 write "aaa", 1 sync, 2 write "bbb", 3 write "ccc" (crash
       after 1 byte of it). *)
    let sim =
      Sim.create ~fault:(Sim.Crash_at { op = 3; byte = 1; mode }) ()
    in
    let vfs = Sim.vfs sim in
    let w = vfs.Vfs.open_append "f" in
    w.Vfs.write "aaa";
    w.Vfs.sync ();
    w.Vfs.write "bbb";
    (match w.Vfs.write "ccc" with
    | () -> Alcotest.fail "expected simulated power loss"
    | exception Sim.Crashed -> ());
    Alcotest.(check bool) "machine is down" true (Sim.crashed sim);
    (match vfs.Vfs.read_file "f" with
    | _ -> Alcotest.fail "reads after power loss must raise"
    | exception Sim.Crashed -> ());
    List.assoc "f" (Sim.durable (Sim.restart sim))
  in
  Alcotest.(check string) "torn keeps every applied byte" "aaabbbc"
    (run Sim.Torn);
  Alcotest.(check string) "drop-unsynced keeps only synced bytes" "aaa"
    (run Sim.Drop_unsynced);
  let corrupted = run Sim.Corrupt_tail in
  Alcotest.(check int) "corrupt-tail keeps the torn length" 7
    (String.length corrupted);
  Alcotest.(check string) "corrupt-tail leaves synced bytes alone" "aaa"
    (String.sub corrupted 0 3);
  Alcotest.(check bool) "corrupt-tail flips an unsynced byte" true
    (corrupted <> "aaabbbc")

(* A one-shot I/O error applies part of its op and raises; the machine
   keeps running and nothing is frozen. *)
let sim_io_error () =
  let sim = Sim.create ~fault:(Sim.Fail_at { op = 2; byte = 2 }) () in
  let vfs = Sim.vfs sim in
  let w = vfs.Vfs.open_append "f" in
  w.Vfs.write "aaa";
  w.Vfs.sync ();
  (match w.Vfs.write "bbb" with
  | () -> Alcotest.fail "expected an I/O error"
  | exception Sim.Io_error -> ());
  Alcotest.(check bool) "machine still up" false (Sim.crashed sim);
  Alcotest.(check string) "the failed write landed in part" "aaabb"
    (vfs.Vfs.read_file "f");
  w.Vfs.write "c";
  w.Vfs.sync ();
  Alcotest.(check string) "later ops work" "aaabbc"
    (List.assoc "f" (Sim.durable (Sim.restart sim)))

let sim_rename_atomic () =
  let sim = Sim.seeded [ (log, "old") ] in
  let vfs = Sim.vfs sim in
  let w = vfs.Vfs.open_trunc "tmp" in
  w.Vfs.write "new!";
  w.Vfs.sync ();
  vfs.Vfs.rename ~src:"tmp" ~dst:log;
  Alcotest.(check string) "rename replaces contents" "new!"
    (vfs.Vfs.read_file log);
  Alcotest.(check bool) "source is gone" false (vfs.Vfs.exists "tmp")

(* Positional reads see what [read_file] sees — written-but-unsynced
   bytes included — refuse a window outside the file with the typed
   error, and die with the machine. *)
let sim_read_at () =
  let sim = Sim.create ~fault:(Sim.Crash_at { op = 3; byte = 0; mode = Sim.Torn }) () in
  let vfs = Sim.vfs sim in
  let w = vfs.Vfs.open_append "f" in
  w.Vfs.write "0123456789";
  w.Vfs.sync ();
  w.Vfs.write "abcdef";
  let whole = vfs.Vfs.read_file "f" in
  Alcotest.(check int) "size counts unsynced bytes" (String.length whole)
    (vfs.Vfs.size "f");
  for pos = 0 to String.length whole do
    for len = 0 to String.length whole - pos do
      Alcotest.(check string)
        (Printf.sprintf "read_at %d %d" pos len)
        (String.sub whole pos len)
        (Vfs.read_at vfs "f" ~pos ~len)
    done
  done;
  let buf = Bytes.make 8 '.' in
  vfs.Vfs.read_into "f" buf [ (12, 3, 4) ];
  Alcotest.(check string) "read_into fills the window only" "...cdef."
    (Bytes.to_string buf);
  List.iter
    (fun (pos, len) ->
      match Vfs.read_at vfs "f" ~pos ~len with
      | s -> Alcotest.failf "read_at %d %d returned %S" pos len s
      | exception Vfs.Out_of_range _ -> ())
    [ (-1, 1); (0, -1); (0, 17); (16, 1); (17, 0); (max_int, 1); (1, max_int) ];
  (match w.Vfs.write "x" with
  | () -> Alcotest.fail "expected simulated power loss"
  | exception Sim.Crashed -> ());
  (match Vfs.read_at vfs "f" ~pos:0 ~len:1 with
  | _ -> Alcotest.fail "read_at after power loss must raise"
  | exception Sim.Crashed -> ());
  match vfs.Vfs.size "f" with
  | _ -> Alcotest.fail "size after power loss must raise"
  | exception Sim.Crashed -> ()

(* ------------------------------------------------------------------ *)
(* Resuming over a torn tail: a second life must cut the garbage a
   power loss left after the last committed entry before it commits,
   or every later epoch would be unreachable on reload.               *)

let torn_tail_resume_roundtrip () =
  let env = make_env () in
  let root = build env (Pair (1, 2, Some (Leaf 3), Some (Leaf 4))) in
  let open_store vfs = Ickpt_cas.Store.open_ ~vfs env.schema ~path:store in
  (* First life: two durable checkpoints. *)
  let sim = Sim.create () in
  let s = open_store (Sim.vfs sim) in
  ignore (Ickpt_cas.Store.checkpoint s [ root ]);
  Barrier.set_int root 0 41;
  ignore (Ickpt_cas.Store.checkpoint s [ root ]);
  let index = Ickpt_cas.Store.index_path store in
  let files = Sim.durable sim in
  (* Power loss mid-commit left a torn entry at the index tail. *)
  let content = List.assoc index files in
  let torn = content ^ String.sub content 0 7 in
  let sim2 =
    Sim.seeded ((index, torn) :: List.remove_assoc index files)
  in
  let vfs2 = Sim.vfs sim2 in
  (* Second life: reopen must truncate the garbage before committing. *)
  let s2 = open_store vfs2 in
  Alcotest.(check (list int)) "both epochs survive" [ 0; 1 ]
    (Ickpt_cas.Store.epochs s2);
  Barrier.set_int root 0 42;
  ignore (Ickpt_cas.Store.checkpoint s2 [ root ]);
  let s3 = open_store vfs2 in
  match Ickpt_cas.Store.restore s3 ~epoch:2 with
  | exception e ->
      Alcotest.failf "restore after resume failed: %s" (Printexc.to_string e)
  | _, [ r ] ->
      Alcotest.(check bool)
        "checkpoint committed after a torn tail is readable" true
        (Deep_eq.equal root r)
  | _ -> Alcotest.fail "expected exactly one recovered root"

(* ------------------------------------------------------------------ *)
(* Atomic compaction: a crash anywhere inside a GC leaves either the
   complete old store or the complete compacted one.                  *)

let compaction_crash_atomic () =
  let env = make_env () in
  let root = build env (Pair (0, 0, Some (Leaf 0), None)) in
  let open_store vfs =
    Ickpt_cas.Store.open_ ~vfs ~policy:(Policy.Full_every 2) env.schema
      ~path:store
  in
  let sim = Sim.create () in
  let s = open_store (Sim.vfs sim) in
  for i = 0 to 2 do
    Barrier.set_int root 0 i;
    ignore (Ickpt_cas.Store.checkpoint s [ root ])
  done;
  let files = Sim.durable sim in
  let gc vfs =
    ignore (Ickpt_cas.Store.gc (open_store vfs) ~retain:(Keep_last 1))
  in
  let n_ops =
    let sim = Sim.seeded files in
    gc (Sim.vfs sim);
    Sim.ops sim
  in
  let outcomes =
    List.init n_ops (fun op ->
        let sim =
          Sim.seeded ~fault:(Sim.Crash_at { op; byte = 1; mode = Sim.Torn })
            files
        in
        (match gc (Sim.vfs sim) with
        | () -> Alcotest.fail "expected simulated power loss"
        | exception Sim.Crashed -> ());
        let s = open_store (Sim.vfs (Sim.restart sim)) in
        Alcotest.(check (list string))
          "consistent" [] (Ickpt_cas.Store.check s);
        (match Ickpt_cas.Store.restore s ~epoch:2 with
        | _, [ r ] ->
            Alcotest.(check bool) "newest epoch restores" true
              (Deep_eq.equal root r)
        | _ -> Alcotest.fail "expected exactly one recovered root");
        Ickpt_cas.Store.epochs s)
  in
  List.iter
    (fun epochs ->
      Alcotest.(check bool) "old store or compacted one" true
        (epochs = [ 0; 1; 2 ] || epochs = [ 2 ]))
    outcomes;
  Alcotest.(check bool) "a crash before the commit keeps the old store" true
    (List.mem [ 0; 1; 2 ] outcomes);
  Alcotest.(check bool) "a crash after it keeps the compacted one" true
    (List.mem [ 2 ] outcomes)

(* ------------------------------------------------------------------ *)
(* The sweep itself. The tallies are exact.                           *)

let check_tally (r : Sweep.report) ~points ~runs =
  if not (Sweep.ok r) then
    Alcotest.failf "crash sweep violations:@.%a" Sweep.pp_report r;
  Alcotest.(check (pair int int))
    (r.r_label ^ ": points, runs") (points, runs) (r.r_points, r.r_runs)

(* The tallies [ickpt_bench crash] prints: a driver or workload change
   that silently drops crash points fails here. The I/O-error sweeps fail
   one op at each crash point instead, once, and every epoch reported
   durable must survive and restore as taken. *)
let sweep_default_tallies () =
  check_tally (Sweep.run (Store_sim.workload ())) ~points:112 ~runs:336;
  check_tally (Sweep.run (Service_sim.workload ())) ~points:80 ~runs:240;
  check_tally (Sweep.run_errors (Store_sim.workload ())) ~points:112 ~runs:112;
  check_tally (Sweep.run_errors (Service_sim.workload ())) ~points:80 ~runs:80

(* The store workload's gc drops epochs 0-2, so it renames the staged
   index, then the staged pack. An I/O error that lets the index rename
   land, or stops the pack rename, must still leave every epoch reported
   durable — those before the gc that it kept, and those after it —
   restorable after a reopen. *)
let gc_rename_faults () =
  let w = Store_sim.workload () in
  let reference = Sim.create () in
  w.run (Sim.vfs reference) ~commit:ignore ~base:ignore;
  let renames =
    List.concat
      (List.mapi
         (fun i (kind, _) -> if kind = "rename" then [ i ] else [])
         (Sim.op_log reference))
  in
  match renames with
  | [ index_op; pack_op ] ->
      List.iter
        (fun (what, op, byte) ->
          let sim = Sim.create ~fault:(Sim.Fail_at { op; byte }) () in
          let durable = ref [] in
          w.run (Sim.vfs sim)
            ~commit:(fun s -> durable := s :: !durable)
            ~base:ignore;
          Alcotest.(check (list int))
            (what ^ ": epochs reported durable") [ 0; 1; 2; 3; 4; 5 ]
            (List.rev_map fst !durable);
          match
            w.check (Sim.vfs (Sim.restart sim)) ~exact:true
              (List.rev !durable)
          with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: %s" what msg)
        [ ("index rename lands, then fails", index_op, 1);
          ("pack rename fails", pack_op, 0) ]
  | ops ->
      Alcotest.failf "expected the gc's two renames, got %d" (List.length ops)

(* A fake workload: a log of one-byte records, each "committed" once
   written, with or without a sync. Recovery keeps the longest committed
   state the surviving file starts with, so only durability is judged. *)
let byte_log ~sync =
  { Sweep.label = (if sync then "byte-log/sync" else "byte-log/no-sync");
    seed = [];
    run =
      (fun vfs ~commit ~base ->
        let w = vfs.Vfs.open_append log in
        let state = ref "" in
        List.iter
          (fun r ->
            w.Vfs.write r;
            if sync then w.Vfs.sync ();
            state := !state ^ r;
            commit !state;
            if r = "a" then base ())
          [ "a"; "b"; "c" ]);
    check =
      (fun vfs ~exact:_ committed ->
        let got = if vfs.Vfs.exists log then vfs.Vfs.read_file log else "" in
        if List.exists (fun prefix -> String.starts_with ~prefix got) committed
        then Ok ()
        else Error "no committed state survived") }

(* The driver gates: a commit that never syncs loses every committed
   state once unsynced bytes are dropped, and the sweep reports it. *)
let sweep_catches_unsynced_commit () =
  check_tally (Sweep.run (byte_log ~sync:true)) ~points:8 ~runs:24;
  let r = Sweep.run (byte_log ~sync:false) in
  Alcotest.(check bool) "unsynced commit is a violation" false (Sweep.ok r);
  Alcotest.(check bool)
    "every drop-unsynced crash is caught" true
    (List.length
       (List.filter
          (fun v -> v.Sweep.v_mode = Some Sim.Drop_unsynced)
          r.Sweep.r_violations)
    = r.Sweep.r_points)

let suites =
  [ ( "faultsim.sim",
      [ Alcotest.test_case "crash modes" `Quick sim_crash_modes;
        Alcotest.test_case "atomic rename" `Quick sim_rename_atomic;
        Alcotest.test_case "positional reads" `Quick sim_read_at;
        Alcotest.test_case "one-shot I/O error" `Quick sim_io_error ] );
    ( "faultsim.regressions",
      [ Alcotest.test_case "torn-tail resume roundtrip" `Quick
          torn_tail_resume_roundtrip;
        Alcotest.test_case "compaction crash is atomic" `Quick
          compaction_crash_atomic ] );
    ( "faultsim.sweep",
      [ Alcotest.test_case "default tallies" `Quick sweep_default_tallies;
        Alcotest.test_case "gc rename faults" `Quick gc_rename_faults;
        Alcotest.test_case "catches an unsynced commit" `Quick
          sweep_catches_unsynced_commit ] ) ]
