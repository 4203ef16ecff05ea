(* Source lint over the repo's own OCaml, using the compiler's parser.

   Two checks, both born from real hazards in this codebase:

   - [Mutable_state]: module-level [ref] / [Hashtbl.create] /
     [Buffer.create] in the domain-parallel layers (lib/sim, lib/par).
     A top-level table shared by worker domains is a data race the
     type system will never flag; state must be per-domain
     (Domain.DLS), mutex-guarded in the same binding, or explicitly
     annotated [(* klint: allow *)] with a reason.

   - [Raw_open_out]: any direct [open_out] family call, plus
     [Unix.openfile] and [Sys.rename].  Durable writes must go through
     [Fileio.write_atomic] so an interrupted run leaves the previous
     complete file (never a truncated one), the rename is fsynced into
     its directory, and the kdur I/O hook sees — and can fault — every
     operation.

   The parser drops comments, so allow-annotations are recognised
   textually: a finding is suppressed when its line or the line above
   contains "klint: allow". *)

type check = Mutable_state | Raw_open_out

type finding = { file : string; line : int; code : string; message : string }

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s" f.file f.line f.code f.message

let rec flatten_longident = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_longident l @ [ s ]
  | Longident.Lapply (_, l) -> flatten_longident l

let ident_string l = String.concat "." (flatten_longident l)

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

(* Line numbers (1-based) whose findings are suppressed: any line that
   contains the marker allows itself and the line after it. *)
let allowed_lines source =
  let tbl = Hashtbl.create 8 in
  let contains_marker line =
    let marker = "klint: allow" in
    let n = String.length line and m = String.length marker in
    let rec at i = i + m <= n && (String.sub line i m = marker || at (i + 1)) in
    at 0
  in
  List.iteri
    (fun i line ->
      if contains_marker line then begin
        Hashtbl.replace tbl (i + 1) ();
        Hashtbl.replace tbl (i + 2) ()
      end)
    (String.split_on_char '\n' source);
  tbl

(* --- mutable-state check ----------------------------------------------- *)

let creator_names = [ "ref"; "Hashtbl.create"; "Buffer.create" ]
let guard_names = [ "Mutex.create"; "Domain.DLS" ]

let is_guard name =
  List.exists
    (fun g ->
      name = g
      || String.length name > String.length g
         && String.sub name 0 (String.length g + 1) = g ^ ".")
    guard_names

(* Mutable-state creations evaluated when the binding is — anything
   inside a [fun]/[function] body is fresh per call and does not
   count (that is exactly how Domain.DLS.new_key thunks stay legal). *)
let creations expr =
  let acc = ref [] in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ -> ()
          | Parsetree.Pexp_apply
              ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, _) ->
              let name = ident_string txt in
              if List.mem name creator_names then
                acc := (e.Parsetree.pexp_loc, name) :: !acc;
              Ast_iterator.default_iterator.expr self e
          | _ -> Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.expr iter expr;
  List.rev !acc

let mentions_guard expr =
  let found = ref false in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } ->
              if is_guard (ident_string txt) then found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.expr iter expr;
  !found

let rec mutable_state_of_structure ~file ~allowed (str : Parsetree.structure) =
  List.concat_map (mutable_state_of_item ~file ~allowed) str

and mutable_state_of_item ~file ~allowed (item : Parsetree.structure_item) =
  match item.Parsetree.pstr_desc with
  | Parsetree.Pstr_value (_, vbs) ->
      List.concat_map
        (fun (vb : Parsetree.value_binding) ->
          if mentions_guard vb.Parsetree.pvb_expr then []
          else
            List.filter_map
              (fun (loc, what) ->
                let line = line_of loc in
                if Hashtbl.mem allowed line then None
                else
                  Some
                    {
                      file;
                      line;
                      code = "toplevel-mutable-state";
                      message =
                        Printf.sprintf
                          "module-level mutable state (%s) shared across \
                           domains; use Domain.DLS, guard it with a mutex in \
                           the same binding, or annotate (* klint: allow *)"
                          what;
                    })
              (creations vb.Parsetree.pvb_expr))
        vbs
  | Parsetree.Pstr_module mb ->
      mutable_state_of_module ~file ~allowed mb.Parsetree.pmb_expr
  | Parsetree.Pstr_recmodule mbs ->
      List.concat_map
        (fun (mb : Parsetree.module_binding) ->
          mutable_state_of_module ~file ~allowed mb.Parsetree.pmb_expr)
        mbs
  | _ -> []

and mutable_state_of_module ~file ~allowed (me : Parsetree.module_expr) =
  match me.Parsetree.pmod_desc with
  | Parsetree.Pmod_structure str -> mutable_state_of_structure ~file ~allowed str
  | Parsetree.Pmod_constraint (me, _) -> mutable_state_of_module ~file ~allowed me
  | _ -> []

(* --- raw durable-I/O check --------------------------------------------- *)

(* Writer primitives that bypass Fileio's crash-consistency protocol.
   open_out leaves truncated files; Unix.openfile dodges the I/O hook
   (so torture cells cannot see or fault the op); Sys.rename without
   the temp + fsync + dir-fsync dance is neither atomic-with-content
   nor durable. *)
let raw_io_names =
  [
    ("open_out", "raw-open-out");
    ("open_out_bin", "raw-open-out");
    ("open_out_gen", "raw-open-out");
    ("Unix.openfile", "raw-openfile");
    ("Sys.rename", "raw-rename");
  ]

let raw_io_message name =
  match name with
  | "Sys.rename" ->
      "direct Sys.rename bypasses Fileio's temp + fsync + dir-fsync \
       protocol; the rename is invisible to the I/O hook and not durable"
  | "Unix.openfile" ->
      "direct Unix.openfile bypasses Fileio and the I/O hook; durable \
       writes must go through Fileio.write_atomic"
  | _ ->
      Printf.sprintf
        "direct %s bypasses Fileio.write_atomic; a crash mid-write leaves a \
         truncated result file"
        name

let raw_open_out ~file ~allowed (str : Parsetree.structure) =
  let acc = ref [] in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ }
            when List.mem_assoc (ident_string txt) raw_io_names ->
              let name = ident_string txt in
              let line = line_of e.Parsetree.pexp_loc in
              if not (Hashtbl.mem allowed line) then
                acc :=
                  {
                    file;
                    line;
                    code = List.assoc name raw_io_names;
                    message = raw_io_message name;
                  }
                  :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.structure iter str;
  List.rev !acc

(* --- entry points ------------------------------------------------------ *)

let lint_source ~path ~checks source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | exception _ ->
      [
        {
          file = path;
          line = 1;
          code = "parse-error";
          message = "file does not parse as an OCaml implementation";
        };
      ]
  | str ->
      let allowed = allowed_lines source in
      List.concat_map
        (function
          | Mutable_state -> mutable_state_of_structure ~file:path ~allowed str
          | Raw_open_out -> raw_open_out ~file:path ~allowed str)
        checks
      |> List.sort (fun a b -> Int.compare a.line b.line)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ~checks path = lint_source ~path ~checks (read_file path)

(* Which checks a repo file gets: mutable-state only in the
   domain-parallel layers; open_out everywhere except the one module
   whose job is to wrap it. *)
let default_checks ~path =
  let has_sub sub =
    let n = String.length path and m = String.length sub in
    let rec at i = i + m <= n && (String.sub path i m = sub || at (i + 1)) in
    at 0
  in
  let checks =
    if has_sub "lib/sim" || has_sub "lib/par" then [ Mutable_state ] else []
  in
  if has_sub "fileio.ml" then checks else checks @ [ Raw_open_out ]
