"""Frontend converters into the Nimble IR.

The paper's system ingests models "in the format of mainstream deep
learning frameworks" through TVM's frontend converters (§4). This package
provides the equivalent for this reproduction's framework substrate: a
TensorFlow-style dataflow graph format (:class:`Graph` of op nodes,
constants and while loops with control-flow primitives) and its
converter into Nimble IR modules — loops become recursive functions
guarded by ``If``, exactly the representation the dynamic pipeline
compiles. The baseline frameworks do not use it: they run the model's
IR module itself.
"""

from repro.frontends.from_graph import ConstNode, Graph, OpNode, WhileLoop, from_graph

__all__ = ["ConstNode", "Graph", "OpNode", "WhileLoop", "from_graph"]
