(* Inspect and garbage-collect content-addressed checkpoint stores.

   Three subcommands:

   - [inspect] (the default): per-epoch directory of an existing store
     (kind — a full folded or whole —, roots, chunk counts, the bytes of
     records the epoch wrote anew), dedup statistics, and the full
     integrity check ([Store.check]); [--json] emits the same
     machine-readably;
   - [gc]: drop epochs outside a retention window ([--keep-last] or
     [--keep-from]) and reclaim unreferenced chunks;
   - [demo]: build a small store in the system temp directory from a
     synthetic incremental run with a full every third epoch, restore a
     mid-run epoch, gc it, restore every retained epoch against chain
     replay, and print what happened — a self-contained smoke of the
     store path (exit 1 on a mismatch).

   Exit codes (uniform with ickpt_lint): 0 — clean; 1 — integrity
   errors or a failed store operation; 2 — usage or input error. *)

open Cmdliner
open Ickpt_core
open Ickpt_cas

let path_arg =
  let doc = "Store path (the files are $(docv).pack and $(docv).idx)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc)

let json_arg =
  let doc = "Emit machine-readable JSON on stdout instead of the report." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* Metadata-only operations never decode records, so an empty schema
   suffices — the store files carry everything else. *)
let open_existing path =
  if
    not
      (Sys.file_exists (Store.pack_path path)
      || Sys.file_exists (Store.index_path path))
  then begin
    Printf.eprintf "no store at %s (missing %s)\n" path (Store.pack_path path);
    exit 2
  end;
  match Store.open_ (Ickpt_runtime.Schema.create ()) ~path with
  | store -> store
  | exception Store.Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1

(* An epoch's kind, a full's folded or whole, and the bytes of the chunks
   it was the first to write: the records it wrote anew. *)
let kind_label (e : Epoch_index.entry) =
  match e.kind with
  | Segment.Incremental -> "incremental"
  | Segment.Full -> if e.folded then "full folded" else "full whole"

let new_bytes (e : Epoch_index.entry) = Epoch_index.located_end e - e.at

let pp_stats ppf (s : Store.stats) =
  Format.fprintf ppf
    "epochs %d, chunks %d, logical %d bytes, on disk %d bytes, dedup %.2fx"
    s.Store.n_epochs s.Store.n_chunks s.Store.logical_bytes
    s.Store.physical_bytes s.Store.dedup_ratio

let stats_json (s : Store.stats) =
  Printf.sprintf
    "{\"epochs\": %d, \"chunks\": %d, \"logical_bytes\": %d, \
     \"physical_bytes\": %d, \"dedup_ratio\": %.3f, \"pack_cut_bytes\": %d}"
    s.Store.n_epochs s.Store.n_chunks s.Store.logical_bytes
    s.Store.physical_bytes s.Store.dedup_ratio s.Store.pack_cut_bytes

(* Opening cuts a torn pack tail; say so, naming the file. *)
let pp_cut ppf (pack, cut) =
  if cut > 0 then Format.fprintf ppf "  torn tail: cut %d byte(s) off %s@." cut pack

(* ---- inspect ------------------------------------------------------------- *)

(* A service store (one shared pack, per-shard mux indexes) is inspected
   through per-tenant attribution: who owns which chunks, who shares, and
   what cross-tenant dedup saved each tenant. *)
let inspect_service path json =
  let open Ickpt_service in
  let svc = Service.open_ ~path () in
  let rows = Attrib.rows svc in
  let problems = Service.check svc in
  let cut = (Service.stats svc).Service.pack_cut_bytes in
  Service.close svc;
  if json then begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "{\n  \"path\": %S,\n  \"service\": true,\n  \
                       \"pack_cut_bytes\": %d,\n  \"tenants\": [\n" path cut);
    List.iteri
      (fun i r ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"tenant\": %S, \"epochs\": %d, \"chunks\": %d, \
              \"owned\": %d, \"shared\": %d,\n\
             \     \"logical_bytes\": %d, \"private_bytes\": %d, \
              \"saved_bytes\": %d}%s\n"
             r.Attrib.a_name r.Attrib.a_epochs r.Attrib.a_chunks
             r.Attrib.a_owned r.Attrib.a_shared r.Attrib.a_logical_bytes
             r.Attrib.a_private_bytes r.Attrib.a_saved_bytes
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string buf
      (Printf.sprintf "  ],\n  \"check_errors\": [%s]\n}\n"
         (String.concat ", " (List.map (Printf.sprintf "%S") problems)));
    print_string (Buffer.contents buf)
  end
  else begin
    Format.printf "service store %s (%d tenant(s))@." path (List.length rows);
    pp_cut Format.std_formatter (Service.pack_path path, cut);
    Format.printf
      "  %-12s %7s %7s %7s %7s %12s %12s %12s@." "tenant" "epochs" "chunks"
      "owned" "shared" "logical B" "private B" "saved B";
    List.iter
      (fun r ->
        Format.printf "  %-12s %7d %7d %7d %7d %12d %12d %12d@."
          r.Attrib.a_name r.Attrib.a_epochs r.Attrib.a_chunks r.Attrib.a_owned
          r.Attrib.a_shared r.Attrib.a_logical_bytes r.Attrib.a_private_bytes
          r.Attrib.a_saved_bytes)
      rows;
    match problems with
    | [] -> Format.printf "  check: consistent@."
    | ps -> List.iter (fun p -> Format.printf "  check ERROR: %s@." p) ps
  end;
  if problems <> [] then exit 1

let inspect_cmd =
  let inspect path json =
    if Ickpt_service.Attrib.is_service_store path then inspect_service path json
    else
    let store = open_existing path in
    let problems = Store.check store in
    let stats = Store.stats store in
    if json then begin
      let buf = Buffer.create 512 in
      Buffer.add_string buf
        (Printf.sprintf "{\n  \"path\": %S,\n  \"stats\": %s,\n" path
           (stats_json stats));
      Buffer.add_string buf "  \"epochs\": [\n";
      let epochs = Store.epochs store in
      List.iteri
        (fun i e ->
          let entry = Store.entry_at store e in
          Buffer.add_string buf
            (Printf.sprintf
               "    {\"epoch\": %d, \"kind\": %S, \"folded\": %b, \
                \"roots\": %d, \"chunks\": %d, \"new_bytes\": %d}%s\n"
               e
               (match entry.Epoch_index.kind with
               | Segment.Full -> "full"
               | Segment.Incremental -> "incremental")
               entry.Epoch_index.folded
               (List.length entry.Epoch_index.roots)
               (List.length entry.Epoch_index.chunks)
               (new_bytes entry)
               (if i = List.length epochs - 1 then "" else ",")))
        epochs;
      Buffer.add_string buf
        (Printf.sprintf "  ],\n  \"check_errors\": [%s]\n}\n"
           (String.concat ", " (List.map (Printf.sprintf "%S") problems)));
      print_string (Buffer.contents buf)
    end
    else begin
      Format.printf "store %s@.  %a@.%a" path pp_stats stats pp_cut
        (Store.pack_path path, stats.Store.pack_cut_bytes);
      List.iter
        (fun e ->
          let entry = Store.entry_at store e in
          Format.printf
            "  epoch %3d  %-11s  %d root(s), %d chunk(s), %d new byte(s)@." e
            (kind_label entry)
            (List.length entry.Epoch_index.roots)
            (List.length entry.Epoch_index.chunks)
            (new_bytes entry))
        (Store.epochs store);
      match problems with
      | [] -> Format.printf "  check: consistent@."
      | ps ->
          List.iter (fun p -> Format.printf "  check ERROR: %s@." p) ps
    end;
    if problems <> [] then exit 1
  in
  let doc = "show a store's epochs, dedup statistics and integrity" in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const inspect $ path_arg $ json_arg)

(* ---- gc ------------------------------------------------------------------ *)

let gc_cmd =
  let keep_last_arg =
    let doc = "Keep the newest $(docv) epochs." in
    Arg.(value & opt (some int) None & info [ "keep-last" ] ~docv:"N" ~doc)
  in
  let keep_from_arg =
    let doc = "Keep epochs at or after $(docv)." in
    Arg.(value & opt (some int) None & info [ "keep-from" ] ~docv:"EPOCH" ~doc)
  in
  let gc path json keep_last keep_from =
    let retain =
      match (keep_last, keep_from) with
      | Some n, None -> Store.Keep_last n
      | None, Some e -> Store.Keep_from e
      | None, None | Some _, Some _ ->
          Printf.eprintf "gc: give exactly one of --keep-last, --keep-from\n";
          exit 2
    in
    let store = open_existing path in
    match Store.gc store ~retain with
    | g ->
        let stats = Store.stats store in
        if json then
          Printf.printf
            "{\"dropped_epochs\": %d, \"dropped_chunks\": %d, \
             \"reclaimed_bytes\": %d,\n \"stats\": %s}\n"
            g.Store.dropped_epochs g.Store.dropped_chunks
            g.Store.reclaimed_bytes (stats_json stats)
        else
          Format.printf
            "gc %s: dropped %d epoch(s), %d chunk(s), reclaimed %d bytes@.  \
             now: %a@."
            path g.Store.dropped_epochs g.Store.dropped_chunks
            g.Store.reclaimed_bytes pp_stats stats
    | exception Store.Error msg ->
        Printf.eprintf "gc: %s\n" msg;
        exit 1
  in
  let doc = "drop epochs outside a retention window and reclaim chunks" in
  Cmd.v
    (Cmd.info "gc" ~doc)
    Term.(const gc $ path_arg $ json_arg $ keep_last_arg $ keep_from_arg)

(* ---- demo ---------------------------------------------------------------- *)

let demo_cmd =
  let demo () =
    let open Ickpt_synth in
    let path =
      Filename.concat (Filename.get_temp_dir_name ()) "ickpt_store_demo.ckpt"
    in
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ Store.pack_path path; Store.index_path path ];
    (* A quarter of one list's elements changes per round, as in the
       paper's Table 2 at its lowest rate: most of a full stays where an
       older epoch wrote it, so the fulls fold. *)
    let t =
      Synth.build
        { Synth.default_config with
          Synth.n_structures = 8;
          pct_modified = 25;
          modified_lists = 1 }
    in
    let store = Store.open_ t.Synth.schema ~path in
    let chain = Chain.create t.Synth.schema in
    let roots = Synth.roots t in
    ignore
      (Store.append_segment store (Chain.take_full chain roots).Chain.segment);
    for round = 1 to 8 do
      ignore (Synth.mutate_round t);
      let taken =
        (* A full every third epoch, so gc has droppable history. *)
        if round mod 3 = 0 then Chain.take_full chain roots
        else Chain.take_incremental chain roots
      in
      ignore (Store.append_segment store taken.Chain.segment)
    done;
    Format.printf "built %s@.  %a@." path pp_stats (Store.stats store);
    let epoch = 4 in
    let _, restored = Store.restore store ~epoch in
    Format.printf "restored epoch %d: %d root(s)@." epoch
      (List.length restored);
    let g = Store.gc store ~retain:(Store.Keep_last 3) in
    Format.printf
      "gc --keep-last 3: dropped %d epoch(s), %d chunk(s), reclaimed %d \
       bytes@.  now: %a@."
      g.Store.dropped_epochs g.Store.dropped_chunks g.Store.reclaimed_bytes
      pp_stats (Store.stats store);
    (* Every retained epoch against chain replay, the folded fulls'
       included. *)
    let retained = Store.epochs store in
    let mismatched =
      List.filter
        (fun e ->
          let _, stored = Store.restore store ~epoch:e in
          let segs = Chain.since_full chain ~epoch:e in
          let roots = (List.nth segs (List.length segs - 1)).Segment.roots in
          let _, replayed = Restore.of_segments t.Synth.schema segs ~roots in
          not
            (List.length stored = List.length replayed
            && List.for_all2 Ickpt_runtime.Deep_eq.equal stored replayed))
        retained
    in
    List.iter
      (fun e ->
        Format.printf "  epoch %d  %s@." e (kind_label (Store.entry_at store e)))
      retained;
    let problems = Store.check store in
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ Store.pack_path path; Store.index_path path ];
    (match mismatched with
    | [] ->
        Format.printf "restored %d retained epoch(s): all agree with chain replay@."
          (List.length retained)
    | es ->
        List.iter
          (fun e -> Format.printf "restore MISMATCH: epoch %d differs from chain replay@." e)
          es);
    (match problems with
    | [] -> Format.printf "check: consistent@."
    | ps -> List.iter (fun p -> Format.printf "check ERROR: %s@." p) ps);
    if mismatched <> [] || problems <> [] then exit 1
  in
  let doc = "build, restore and gc a small throwaway store end to end" in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const demo $ const ())

let () =
  let doc = "inspect and garbage-collect content-addressed checkpoint stores" in
  let info = Cmd.info "ickpt_store" ~version:"1.0.0" ~doc in
  let code = Cmd.eval (Cmd.group info [ inspect_cmd; gc_cmd; demo_cmd ]) in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
