let escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let to_dot ?(graph_name = "heap") roots =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" graph_name);
  Buffer.add_string buf "  node [shape=record, fontname=monospace];\n";
  let seen = Hashtbl.create 64 in
  let rec visit (o : Model.obj) =
    let id = o.Model.info.Model.id in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      let ints =
        String.concat ", " (Array.to_list (Array.map string_of_int o.Model.ints))
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s #%d|{%s}\"%s];\n" id
           (escape o.Model.klass.Model.kname)
           id (escape ints)
           (if o.Model.info.Model.modified then ", peripheries=2" else ""));
      Array.iteri
        (fun slot child ->
          match child with
          | None -> ()
          | Some c ->
              Buffer.add_string buf
                (Printf.sprintf "  n%d -> n%d [label=\"%d\"];\n" id
                   c.Model.info.Model.id slot);
              visit c)
        o.Model.children
    end
  in
  List.iter visit roots;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
