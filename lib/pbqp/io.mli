(** Text serialization for PBQP graphs.

    Line-oriented format, whitespace-separated, ['#'] comments:
    {v
    pbqp <n> <m>
    v <id> <c_0> ... <c_{m-1}>
    e <u> <v> <a_00> <a_01> ... <a_{m-1,m-1}>   # row-major, u-major
    v}
    Infinite entries print as [inf].  Vertices with zero cost vectors and
    absent edges may be omitted. *)

val to_string : Graph.t -> string
(** Reduced graphs serialize too: dead vertex ids are recorded on a
    [dead ...] line and re-killed on parse. *)

val print : Format.formatter -> Graph.t -> unit

val frozen_to_string : Graph.frozen -> string
(** Byte for byte the {!to_string} of the position it stands for: a
    graph prints as its frozen instance, and a frozen instance as its
    {!Graph.residual}, rebuilt for the call. *)

val print_frozen : Format.formatter -> Graph.frozen -> unit

val of_string : string -> Graph.t
(** @raise Invalid_argument with a line-numbered message on malformed
    input. *)

val to_file : string -> Graph.t -> unit

val of_file : string -> Graph.t

(** {1 Solutions}

    One-line text form shared by the label files ({!Core.Labels}) and
    the serving wire format: [assign <c_0> ... <c_{n-1}>], with
    unassigned vertices as [-1]. *)

val print_solution : Format.formatter -> Solution.t -> unit
val solution_to_string : Solution.t -> string

val solution_of_string : string -> Solution.t
(** @raise Invalid_argument on malformed input. *)
