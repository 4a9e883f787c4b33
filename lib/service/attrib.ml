open Ickpt_core
open Ickpt_stream
open Ickpt_cas

type row = {
  a_tenant : int;
  a_name : string;
  a_epochs : int;
  a_chunks : int;
  a_owned : int;
  a_shared : int;
  a_logical_bytes : int;
  a_private_bytes : int;
  a_saved_bytes : int;
}

let is_service_store ?(vfs = Vfs.real) path =
  vfs.Vfs.exists (Service.meta_path path)

let rows svc =
  let entries = Service.committed svc in
  let chunk_len k = Option.value ~default:0 (Service.chunk_len svc k) in
  let names : (int, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (id, name) ->
      if not (Hashtbl.mem names id) then Hashtbl.replace names id name)
    (Service.tenants svc);
  (* Per chunk: the set of tenants referencing it (distinctly). *)
  let referers : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 256 in
  let tenant_chunks : (int, (int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let tenant_epochs : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let tenant_logical : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let bump tbl id n =
    Hashtbl.replace tbl id (n + Option.value ~default:0 (Hashtbl.find_opt tbl id))
  in
  List.iter
    (fun (m : Epoch_index.mux_entry) ->
      let id = m.m_tenant in
      bump tenant_epochs id 1;
      bump tenant_logical id m.m_entry.size;
      let mine =
        match Hashtbl.find_opt tenant_chunks id with
        | Some h -> h
        | None ->
            let h = Hashtbl.create 64 in
            Hashtbl.replace tenant_chunks id h;
            h
      in
      List.iter
        (fun k ->
          Hashtbl.replace mine k ();
          let who =
            match Hashtbl.find_opt referers k with
            | Some h -> h
            | None ->
                let h = Hashtbl.create 4 in
                Hashtbl.replace referers k h;
                h
          in
          Hashtbl.replace who id ())
        m.m_entry.chunks)
    entries;
  let ids =
    List.sort_uniq compare
      (Hashtbl.fold (fun id _ acc -> id :: acc) tenant_epochs []
      @ Hashtbl.fold (fun id _ acc -> id :: acc) names [])
  in
  let rows =
    List.map
      (fun id ->
        let mine =
          Option.value ~default:(Hashtbl.create 1)
            (Hashtbl.find_opt tenant_chunks id)
        in
        let owned = ref 0
        and shared = ref 0
        and private_bytes = ref 0
        and saved = ref 0 in
        Hashtbl.iter
          (fun k () ->
            let n =
              match Hashtbl.find_opt referers k with
              | Some h -> Hashtbl.length h
              | None -> 1
            in
            let len = chunk_len k in
            private_bytes := !private_bytes + len;
            if n <= 1 then incr owned
            else begin
              incr shared;
              saved := !saved + (len * (n - 1) / n)
            end)
          mine;
        { a_tenant = id;
          a_name =
            (match Hashtbl.find_opt names id with
            | Some n -> n
            | None -> Hash64.to_hex id);
          a_epochs = Option.value ~default:0 (Hashtbl.find_opt tenant_epochs id);
          a_chunks = Hashtbl.length mine;
          a_owned = !owned;
          a_shared = !shared;
          a_logical_bytes =
            Option.value ~default:0 (Hashtbl.find_opt tenant_logical id);
          a_private_bytes = !private_bytes;
          a_saved_bytes = !saved })
      ids
  in
  List.sort (fun a b -> compare a.a_name b.a_name) rows
