"""The DiTyCO compiler: source / core terms -> VM assembly -> byte-code.

"the DiTyCO source code is compiled into byte-code for an extended
TyCO virtual machine" (section 1); the nested block structure of the
source is preserved so that movable code can be selected dynamically
(section 5).
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "assembly": "ClassGroup CodeBlock Instr ObjectCode Op Program "
                "validate_program",
    "asmparser": "AsmParseError parse_assembly",
    "codegen": "CompileError Compiler compile_source compile_term",
    "linker": "BundleManifest CodeBundle LinkError LinkResult extract_bundle "
              "link_bundle",
})
