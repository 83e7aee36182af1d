"""Frozen expected values for the end-to-end verification run.

The verification driver (see ``verify``) recomputes every quantity from
scratch and compares against this table.  Values are stored in the same
JSON vocabulary the CLI emits: scalars in the string codec, matrices as
nested lists, polynomials in their canonical rendered form, solution
spaces as ``{"particular": ..., "basis": [...]}`` with ``null`` standing
for an inconsistent (empty) system.

``verify-paper --goldens`` reads a user-supplied replacement table, the
same way the CLI reads every input, which is how the self-test exercises
the failure path: corrupt one value in a copy of this table and the
corresponding verification item must flip to FAIL.
"""

import copy
import json

_DEFAULT_GOLDENS_JSON = r"""
{
  "ten_forms": {
    "1": {
      "case": 1,
      "a_squared": null
    },
    "2": {
      "case": 2,
      "a_squared": null
    },
    "3": {
      "case": 3,
      "a_squared": null
    },
    "4": {
      "case": 4,
      "a_squared": null
    },
    "5": {
      "case": 5,
      "a_squared": null
    },
    "6": {
      "case": 6,
      "a_squared": null
    },
    "7": {
      "case": 7,
      "a_squared": null
    },
    "8": {
      "case": 8,
      "a_squared": "1"
    },
    "9": {
      "case": 9,
      "a_squared": "1"
    },
    "10": {
      "case": 10,
      "a_squared": null
    }
  },
  "symmetry_dims": {
    "1": 8,
    "2": 3,
    "3": 3,
    "4": 3,
    "5": 3,
    "6": 5,
    "7": 5,
    "8": 3,
    "9": 3,
    "10": 3
  },
  "axis_twist_matrix": [
    [
      "0",
      "-1",
      "0"
    ],
    [
      "1",
      "0",
      "0"
    ],
    [
      "0",
      "0",
      "0"
    ]
  ],
  "invariant_cubic_dims": {
    "distinct": 1,
    "repeated": 3,
    "nilpotent": 2,
    "rotation": 2,
    "zero": 10
  },
  "orbit_counts": {
    "distinct": 7,
    "repeated": 3,
    "nilpotent": 3
  },
  "representative_rotations": [
    [
      [
        "1",
        "0",
        "0"
      ],
      [
        "0",
        "1",
        "0"
      ],
      [
        "0",
        "0",
        "1"
      ]
    ],
    [
      [
        "0",
        "0",
        "1"
      ],
      [
        "1",
        "0",
        "0"
      ],
      [
        "0",
        "1",
        "0"
      ]
    ],
    [
      [
        "0",
        "0",
        "1"
      ],
      [
        "0",
        "-1",
        "0"
      ],
      [
        "1",
        "0",
        "0"
      ]
    ],
    [
      [
        "0",
        "0",
        "1"
      ],
      [
        [
          "0",
          "1/2",
          "0",
          "0"
        ],
        [
          "0",
          "-1/2",
          "0",
          "0"
        ],
        "0"
      ],
      [
        [
          "0",
          "1/2",
          "0",
          "0"
        ],
        [
          "0",
          "1/2",
          "0",
          "0"
        ],
        "0"
      ]
    ],
    [
      [
        "0",
        [
          "0",
          "-1/2",
          "0",
          "0"
        ],
        [
          "0",
          "1/2",
          "0",
          "0"
        ]
      ],
      [
        "1",
        "0",
        "0"
      ],
      [
        "0",
        [
          "0",
          "1/2",
          "0",
          "0"
        ],
        [
          "0",
          "1/2",
          "0",
          "0"
        ]
      ]
    ],
    [
      [
        [
          "0",
          "-1/2",
          "0",
          "0"
        ],
        "0",
        [
          "0",
          "1/2",
          "0",
          "0"
        ]
      ],
      [
        "0",
        "-1",
        "0"
      ],
      [
        [
          "0",
          "1/2",
          "0",
          "0"
        ],
        "0",
        [
          "0",
          "1/2",
          "0",
          "0"
        ]
      ]
    ],
    [
      [
        [
          "0",
          "0",
          "0",
          "-1/6"
        ],
        [
          "0",
          "0",
          "0",
          "-1/6"
        ],
        [
          "0",
          "0",
          "0",
          "1/3"
        ]
      ],
      [
        [
          "0",
          "1/2",
          "0",
          "0"
        ],
        [
          "0",
          "-1/2",
          "0",
          "0"
        ],
        "0"
      ],
      [
        [
          "0",
          "0",
          "1/3",
          "0"
        ],
        [
          "0",
          "0",
          "1/3",
          "0"
        ],
        [
          "0",
          "0",
          "1/3",
          "0"
        ]
      ]
    ]
  ],
  "distinct_family": {
    "lambdas": [
      "1",
      "2",
      "-3"
    ],
    "twists": [
      [
        [
          "1",
          "0",
          "0"
        ],
        [
          "0",
          "2",
          "0"
        ],
        [
          "0",
          "0",
          "-3"
        ]
      ],
      [
        [
          "-3",
          "0",
          "0"
        ],
        [
          "0",
          "1",
          "0"
        ],
        [
          "0",
          "0",
          "2"
        ]
      ],
      [
        [
          "-3",
          "0",
          "0"
        ],
        [
          "0",
          "2",
          "0"
        ],
        [
          "0",
          "0",
          "1"
        ]
      ],
      [
        [
          "-3",
          "0",
          "0"
        ],
        [
          "0",
          "3/2",
          "-1/2"
        ],
        [
          "0",
          "-1/2",
          "3/2"
        ]
      ],
      [
        [
          "-1/2",
          "0",
          "-5/2"
        ],
        [
          "0",
          "1",
          "0"
        ],
        [
          "-5/2",
          "0",
          "-1/2"
        ]
      ],
      [
        [
          "-1",
          "0",
          "-2"
        ],
        [
          "0",
          "2",
          "0"
        ],
        [
          "-2",
          "0",
          "-1"
        ]
      ],
      [
        [
          "-3/2",
          [
            "0",
            "0",
            "1/6",
            "0"
          ],
          [
            "0",
            "-3/2",
            "0",
            "0"
          ]
        ],
        [
          [
            "0",
            "0",
            "1/6",
            "0"
          ],
          "3/2",
          [
            "0",
            "0",
            "0",
            "-1/6"
          ]
        ],
        [
          [
            "0",
            "-3/2",
            "0",
            "0"
          ],
          [
            "0",
            "0",
            "0",
            "-1/6"
          ],
          "0"
        ]
      ]
    ],
    "cubics": [
      [
        "xyz"
      ],
      [
        "xyz"
      ],
      [
        "-xyz"
      ],
      [
        "-1/2·xy^2 + 1/2·xz^2"
      ],
      [
        "-1/2·x^2y + 1/2·yz^2"
      ],
      [
        "1/2·x^2y - 1/2·yz^2"
      ],
      [
        "(1/18*sqrt6)·x^3 + (-1/6*sqrt3)·x^2z + (-1/6*sqrt6)·xy^2 + (-1/6*sqrt3)·y^2z + (1/9*sqrt3)·z^3"
      ]
    ]
  },
  "repeated_family": {
    "lambda": "1",
    "twists": [
      [
        [
          "1",
          "0",
          "0"
        ],
        [
          "0",
          "1",
          "0"
        ],
        [
          "0",
          "0",
          "-2"
        ]
      ],
      [
        [
          "-2",
          "0",
          "0"
        ],
        [
          "0",
          "1",
          "0"
        ],
        [
          "0",
          "0",
          "1"
        ]
      ],
      [
        [
          "-1/2",
          "0",
          "-3/2"
        ],
        [
          "0",
          "1",
          "0"
        ],
        [
          "-3/2",
          "0",
          "-1/2"
        ]
      ]
    ],
    "cubic_spans": [
      [
        "x^2z",
        "xyz",
        "y^2z"
      ],
      [
        "xy^2",
        "xyz",
        "xz^2"
      ],
      [
        "(1/2*sqrt2)·xy^2 + (1/2*sqrt2)·y^2z",
        "-1/2·x^2y + 1/2·yz^2",
        "(1/4*sqrt2)·x^3 + (-1/4*sqrt2)·x^2z + (-1/4*sqrt2)·xz^2 + (1/4*sqrt2)·z^3"
      ]
    ]
  },
  "nilpotent_family": {
    "twists": [
      [
        [
          "0",
          "1",
          "0"
        ],
        [
          "0",
          "0",
          "1"
        ],
        [
          "0",
          "0",
          "0"
        ]
      ],
      [
        [
          "0",
          "0",
          "0"
        ],
        [
          "0",
          "0",
          "1"
        ],
        [
          "1",
          "0",
          "0"
        ]
      ],
      [
        [
          "0",
          "0",
          "0"
        ],
        [
          "-1",
          "0",
          "0"
        ],
        [
          "0",
          "-1",
          "0"
        ]
      ]
    ],
    "cubic_spans": [
      [
        "-2·xz^2 + y^2z",
        "z^3"
      ],
      [
        "-2·x^2y + xz^2",
        "x^3"
      ],
      [
        "-2·x^2z + xy^2",
        "x^3"
      ]
    ]
  },
  "book_catalogs": {
    "distinct_probes": [
      {
        "lambdas": [
          "1",
          "2",
          "-3"
        ],
        "solutions": [
          {
            "particular": "1/6·xyz",
            "basis": []
          },
          {
            "particular": "2/3·xyz",
            "basis": []
          },
          {
            "particular": "5/6·xyz",
            "basis": []
          },
          null,
          null,
          null,
          null
        ]
      },
      {
        "lambdas": [
          "1",
          "-4",
          "3"
        ],
        "solutions": [
          {
            "particular": "-5/6·xyz",
            "basis": []
          },
          {
            "particular": "-1/3·xyz",
            "basis": []
          },
          {
            "particular": "-7/6·xyz",
            "basis": []
          },
          null,
          null,
          null,
          null
        ]
      }
    ],
    "repeated": [
      {
        "lambda": "1",
        "solutions": [
          {
            "particular": "0",
            "basis": []
          },
          {
            "particular": "1/2·xyz",
            "basis": [
              "xy^2"
            ]
          },
          null
        ]
      },
      {
        "lambda": "2",
        "solutions": [
          {
            "particular": "0",
            "basis": []
          },
          {
            "particular": "xyz",
            "basis": [
              "xy^2"
            ]
          },
          null
        ]
      }
    ],
    "nilpotent": [
      null,
      {
        "particular": "-1/6·x^2y + 1/12·xz^2",
        "basis": [
          "x^3"
        ]
      },
      {
        "particular": "-1/6·x^2z + 1/12·xy^2",
        "basis": [
          "x^3"
        ]
      }
    ]
  },
  "open_book_catalogs": {
    "repeated": [
      {
        "lambda": "1",
        "solutions": [
          {
            "particular": "-2·x^2z",
            "basis": []
          },
          null,
          null
        ]
      },
      {
        "lambda": "2",
        "solutions": [
          {
            "particular": "-4·x^2z",
            "basis": []
          },
          null,
          null
        ]
      }
    ],
    "distinct_all_empty": true
  },
  "orthogonal_pair_catalog": {
    "particular": "0",
    "basis": [
      "x^2z + y^2z",
      "z^3"
    ]
  },
  "indefinite_pair_catalogs": {
    "rotation": {
      "particular": "0",
      "basis": [
        "x^2z + y^2z",
        "z^3"
      ]
    },
    "null": {
      "particular": "0",
      "basis": [
        "-x^3 + 3·x^2y - 3·xy^2 + y^3",
        "2·x^2y - 2·xy^2 - xz^2 + yz^2"
      ]
    },
    "null_negated": {
      "particular": "0",
      "basis": [
        "-x^3 + 3·x^2y - 3·xy^2 + y^3",
        "2·x^2y - 2·xy^2 - xz^2 + yz^2"
      ]
    },
    "hyperbolic": {
      "particular": "0",
      "basis": [
        "x^3",
        "-xy^2 + xz^2"
      ]
    }
  }
}
"""


def default_goldens() -> dict:
    """A fresh copy of the built-in expected-value table."""
    return copy.deepcopy(_PARSED)


_PARSED = json.loads(_DEFAULT_GOLDENS_JSON)
